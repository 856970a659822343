"""Graph reasoning corpus toolkit.

Synthesizes graph problems across nine task families, solves them exactly,
renders them as natural language, samples and grades chain-of-thought
reasoning paths, and assembles SFT and preference-pair training sets.
"""

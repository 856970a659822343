"""Graph reasoning corpus toolkit.

Synthesizes graph problems across nine task families, solves them exactly,
renders them as natural language, samples and grades chain-of-thought
reasoning paths, and assembles SFT and preference-pair training sets.
"""

from .config import DEFAULT_COUNTS, PipelineConfig, load_config
from .corpus import (assemble_dpo, assemble_sft, compute_stats, format_stats,
                     problem_to_record, read_jsonl, read_problems,
                     record_to_problem, write_jsonl, write_problems)
from .errors import (BackendError, CacheError, GraphCorpusError,
                     GraphInvalidError, GraphKindError, InvalidQueryError,
                     InvalidSpecError, RecordError, SchemaError, StageError)
from .evaluate import evaluate, format_report, run_eval
from .generate import generate_corpus, generate_task
from .grader import (Verdict, Violation, audit_steps, extract_answer, grade,
                     judge)
from .graphs import (Graph, assign_edge_weights, assign_node_weights,
                     canonical_key, connected_components, generate_dag,
                     generate_er, validate_graph)
from .sampler import (PROFILES, Cache, HttpBackend, SampleProfile,
                      StubBackend, get_profile, sample)
from .selector import (build_dpo_pair, dpo_loss, dpo_loss_grad,
                       select_dispreferred, select_diverse, similarity)
from .solvers import (Answer, find_subgraph, hamilton_path, has_cycle,
                      is_bipartite, is_connected, max_flow, max_triangle_sum,
                      shortest_path, solve, topo_sort)
from .tasks import DIFFICULTY_GROUPS, TASK_ORDER, TASKS, build_tiers, get_task
from .textgen import (Problem, build_cot_prompt, estimate_tokens,
                      render_problem, wrap_instruction)

__version__ = "0.1.0"

__all__ = [
    "Answer", "BackendError", "Cache", "CacheError", "DEFAULT_COUNTS",
    "DIFFICULTY_GROUPS", "Graph", "GraphCorpusError", "GraphInvalidError",
    "GraphKindError", "HttpBackend", "InvalidQueryError", "InvalidSpecError",
    "PROFILES", "PipelineConfig", "Problem", "RecordError", "SampleProfile",
    "SchemaError", "StageError", "StubBackend", "TASKS", "TASK_ORDER",
    "Verdict", "Violation", "assemble_dpo", "assemble_sft",
    "assign_edge_weights", "assign_node_weights", "audit_steps",
    "build_cot_prompt", "build_dpo_pair", "build_tiers", "canonical_key",
    "compute_stats", "connected_components", "dpo_loss", "dpo_loss_grad",
    "estimate_tokens", "evaluate", "extract_answer", "find_subgraph",
    "format_report", "format_stats", "generate_corpus", "generate_dag",
    "generate_er", "generate_task", "get_profile", "get_task", "grade",
    "hamilton_path", "has_cycle", "is_bipartite", "is_connected", "judge",
    "load_config", "max_flow", "max_triangle_sum", "problem_to_record",
    "read_jsonl", "read_problems", "record_to_problem", "render_problem",
    "run_eval", "sample", "select_dispreferred", "select_diverse",
    "shortest_path", "similarity", "solve", "topo_sort", "validate_graph",
    "wrap_instruction", "write_jsonl", "write_problems",
]

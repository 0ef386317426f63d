"""Conformance checking between event logs and workflow nets.

The library aligns each log trace against a Petri-net process model with
minimal cost, either monolithically (each trace against the model's
tau-free reachability graph, searched with A*) or by decomposing the model
into concurrency-free S-components, aligning projections, and recomposing.
Every optimal alignment of a trace can be enumerated too, and a log's
distinct traces can be compressed into their minimal DAFSA.
"""

from .align import (Alignment, Move, OptimalSet, align_one_optimal, alignment_cost,
                    all_optimal_alignments, is_proper)
from .dafsa import Dafsa, build_dafsa, common_affixes, language
from .errors import (DecompositionError, LogAlignError, NetStructureError,
                     Not1BoundedError, OracleGuardError, PnmlParseError,
                     SearchBudgetError, StateSpaceCapError, TauReductionError,
                     XesParseError, XesValidationError)
from .heuristic import FutureLabelTable, precompute_future_labels
from .invariants import (PlaceInvariant, SComponent, SComponentDecomposition,
                         decompose, minimal_place_invariants)
from .logs import (EventLog, LabelTable, Trace, log_from_texts, parse_text_log,
                   parse_xes, write_xes)
from .oracle import brute_force_optimal_cost, enumerate_optimal_move_sequences
from .petri import SystemNet, ValidationReport, parse_pnml, validate
from .reachability import (ReachabilityGraph, build_rg, min_visible_skips_net,
                           remove_tau, remove_tau_extended)
from .recompose import (RecompositionOutcome, SComponentAligner, hybrid_select,
                        replays_on_model)
from .report import RunConfig, RunResult, run_conformance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

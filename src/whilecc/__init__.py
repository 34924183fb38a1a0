"""WhileCC*: an interpreter and desk-scale computability checker for the
while-language with countable choice over metric partial algebras."""

from .algebra import (PartialAlgebra, Value, BoolV, NatV, RealV, ArrV,
                      Failure, DIV, FUEL_OUT,
                      builtin_B, builtin_N, builtin_R, builtin_R_N,
                      builtin_interval, star_algebra, get_algebra, apply,
                      product_metric, rat_value, interval_value)
from .codes import (Fuel, ECode, ConstCode, DiagonalCode, CodeRegistry, pair,
                    unpair, rat_decode, rat_encode, check_fast_cauchy_prefix)
from .interp import (Enumerate, Oracle, Dovetail, State, OutcomeSet,
                     eval_term, eval_atomic, first, rest, comp_step,
                     comp_tree_stage, eval_stmt, eval_proc,
                     is_deterministic_on, choose_eliminate)
from .lang import parse, parse_program, auto_init, validate_star, WccError
from .reals import (Enumeration, alpha_rat, ecode_eval, const_code, CCode,
                    c_to_e, computable_closure, CanonicalEnumeration,
                    GeneratorSystem)
from .tracking import (code_algebra, check_tracking, soundness_lift,
                       LUCModulus, EffOpenCover, adequacy_mc, adequacy_g,
                       effective_open_membership, strictify_tracking)

__version__ = "0.1.0"

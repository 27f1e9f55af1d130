"""Derivatives along filter bases on the real line.

A filter base is modeled as a nested indexed chain of subsets of R with a
deterministic sampler; the derivative of f at x0 with respect to the
generated filter is the numerically estimated limit of the difference
quotient h -> (f(x0+h) - f(x0)) / h along the chain. Classical and
one-sided derivatives are the special cases given by the punctured and
one-sided bases.
"""

from .errors import (BaseNotPuncturedError, DomainError, FilterDerivError,
                     NonSmoothPointError, ParseError, UnboundVariableError)
from .expr import (Binary, Call, Constant, Expr, Unary, Variable, as_function,
                   evaluate, free_vars, parse, render)
from .fderiv import (DerivativeResult, FContinuityReport, RuleCheckReport,
                     check_linearity, check_product_rule, check_quotient_rule,
                     classical_derivative, derivative, difference_quotient,
                     f_continuity, HOLDS, INCONCLUSIVE, QUOTIENT_RULE_NOTE,
                     VIOLATED)
from .filterbase import (AxiomReport, FilterBaseChain, SequenceSpec,
                         SetDescriptor, chain_from_elements,
                         generated_filter_witness, in_generated_filter,
                         left_base, punctured_base, right_base, sequence_base,
                         verify_base_axioms)
from .flimit import (CONVERGED, DOMAIN_ERROR, NO_LIMIT, UNDECIDED,
                     LimitConfig, LimitEstimate, TraceRow, estimate_limit,
                     format_trace_csv)
from .oracle import (OracleValue, richardson_one_sided, symbolic_derivative,
                     symbolic_derivative_value)

__version__ = "0.1.0"

"""Exact arithmetic, derivatives and law checking in freely built rigs.

The package constructs the commutative rig freely generated over a carrier
monoid together with a formal unary operation, decides equality by canonical
forms, exposes the unit/collapse structure relating construction levels, and
implements a whole family of derivative operators that agree on
operation-free values and provably differ elsewhere.
"""

from .carrier import (
    Carrier, CarrierMismatch, FreeMonoid, MonoidElem, MonoidHom, MonomialBasis,
    TensorElem, elem_add, elem_as_tensor, elem_scale, hom_apply, tensor_add,
    tensor_bimap, tensor_concat, tensor_permute, tensor_pure, tensor_scale,
)
from .terms import (
    App, One, Prod, RewriteRule, RuleNotApplicable, Sum, Term, Var, Zero,
    ONE, ZERO, positions, rewrite_step, term_map_hom,
)
from .normal import (
    AppAtom, Atom, GenAtom, Monomial, NormalForm, ONE_MONOMIAL,
    apply_functor, as_monoid_element, from_monoid_element, mono_mul, nf_add,
    nf_from_monomial, nf_from_obj, nf_mul, nf_scale, nf_selfmap, nf_to_obj,
    nf_var, normalize, render_nf, tensor_to_obj,
)
from .text import ParseError, parse, print_term, render_tensor
from .gen import equivalent_variant, random_elem, random_hom, random_term_rng
from .modality import (
    CATALOG, RigWithSelfMap, eta, evaluate, mu, nabla, nabla_at, nf_as_tensor,
    rig_from_term, unit,
)
from .derive import SymmetricModeError, d_n, seeded_derivation, sym_derive
from .laws import (
    Failure, Law, LawReport, LawResult, LAWS, SuiteConfig, check_distinctness,
    check_laws, law_names, replay_case, run_law,
)

__version__ = "0.1.0"

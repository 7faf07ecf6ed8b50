"""Exact arithmetic for the classical Markov and Lagrange spectra near 3."""

from .alphabets import (OrderedAlphabet, enumerate_alphabets, farey_fractions,
                        farey_words, mediant, theta, theta_inverse,
                        alphabet_from_pair, is_ordered_alphabet)
from .biseq import BiSeq, lambda_at, markov_value
from .cf import (Cylinder, cylinder, cylinder_length, eval_cf, extremal_tail,
                 periodic_fixpoint, r_exponent)
from .cuts import (Cut, CutClass, classify_cut, compare_bad_cuts,
                   forbidden_pattern_check, position_bounds, push_cut)
from .dimension import (DimBracket, certify_blocks, d_asymptotic, d_upper,
                        lambert_inv, moran_bracket, thm2_bound)
from .errors import (DomainError, EmptyLanguage, NoValidExtension,
                     NotRenormalizable, PreconditionUnverified, SpectraError,
                     TemplateMismatch)
from .lang import (LanguageSet, MembershipCertificate, Threshold,
                   connecting_sequence, membership, parse_threshold,
                   sigma3_factors, sigma_enumerate)
from .renorm import (WeakRenormalization, decompose_over, find_alphabet,
                     renorm_step, semi_renormalize, trivial_renormalization)
from .surd import QuadSurd, SurdSum
from .words import ABWord, UVWord, Word, apply_subst, transpose

__version__ = "0.1.0"

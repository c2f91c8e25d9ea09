"""Orlicz-space machinery for convex risk functionals on discrete measure
spaces: Young functions and their conjugates, Luxemburg/Amemiya norms, dual
representation certificates, and convergence diagnostics."""

from .errors import (ClosureRefusal, NumericFailure, ParseError, Refusal,
                     SlopeConditionError, SpaceMismatchError)
from .measure import (DEFAULT_TRUNCATION, FINITE, TRUNCATED, AeVerdict,
                      MeasureSpace, Rv, ae_converges, counting, indicator,
                      join, meet, ones, strictly_positive_witness,
                      uniform_probability, zeros)
from .orlicz import (FAILS, HOLDS, INCONCLUSIVE, Delta2Verdict, OrliczFunction,
                     SlopeClass, SpaceClassification, check_delta2,
                     classify_space, conjugate, conjugate_value, limit_slope)
from .norms import (NormReport, amemiya_norm, dual_pairing, heart_member,
                    indicator_norm, luxemburg_norm, modular)
from .risk import (FEAS_TOL, RiskFunctional, ValidationReport,
                   average_value_at_risk, entropic, expectation,
                   increasing_catalog, non_monotone_control, validate,
                   worst_case)
from .duality import (AscentResult, BiconjugateReport, ConjugateEstimate,
                      DualCertificate, PositivityEvidence, biconjugate_check,
                      fenchel_conjugate_value, maximize_dual,
                      positivity_evidence, reconstruct)
from .convergence import (AE_ONLY_SPIKE, NORM_CONVERGENT, ORDER_CONVERGENT,
                          ClosureReport, ExtractionResult, FatouReport,
                          FatouRow, SequenceFamily, WstarReport, closure_demo,
                          extract_ae_subsequence, fatou_check,
                          generate_sequence, non_lsc_control,
                          wstar_limit_check)
from .specs import load_custom_table, parse_orlicz_spec, parse_risk_spec
from .io import (read_rv, read_space, read_stacked_rvs, render_record,
                 render_table)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

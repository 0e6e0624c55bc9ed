"""Scan statistics substrate (§3.2–§3.3 of the paper).

The online algorithms decide whether a clip contains a query predicate by
comparing the number of positive model predictions inside the clip against a
*critical value* derived from the distribution of the discrete scan statistic
``S_w(N)`` over Bernoulli trials.  This subpackage implements:

* the Naus (1982) closed-form approximation of ``P(S_w(N) ≥ k)``
  (:mod:`repro.scanstats.naus`);
* the exact transfer-matrix computation used to validate it
  (:mod:`repro.scanstats.exact`);
* critical-value search, Eq. 5 (:mod:`repro.scanstats.critical`);
* the exponential-kernel adaptive background-probability estimator with edge
  correction that powers SVAQD, §3.3 (:mod:`repro.scanstats.kernel`);
* the finite Markov chain embedding extension to Markov-dependent trials
  sketched in the paper's footnote 7 (:mod:`repro.scanstats.markov`).
"""

from repro.scanstats.binomial import binom_cdf, binom_pmf, log_binom_pmf
from repro.scanstats.critical import CriticalValueTable, critical_value
from repro.scanstats.exact import exact_scan_tail
from repro.scanstats.kernel import KernelRateEstimator
from repro.scanstats.markov import MarkovChainSpec, markov_scan_tail
from repro.scanstats.naus import naus_scan_tail, naus_q2, naus_q3

__all__ = [
    "binom_pmf",
    "binom_cdf",
    "log_binom_pmf",
    "naus_scan_tail",
    "naus_q2",
    "naus_q3",
    "exact_scan_tail",
    "critical_value",
    "CriticalValueTable",
    "KernelRateEstimator",
    "MarkovChainSpec",
    "markov_scan_tail",
]

// Package fit implements parameter estimation for the four statistical
// timing models the paper compares:
//
//   - LVF: a single skew-normal fitted by the method of moments (the
//     moments↔parameters bijection of eq. 2) — the industry baseline.
//   - Norm²: a two-component Gaussian mixture fitted by classical EM with
//     closed-form M-steps (Takahashi et al., DAC 2009).
//   - LESN: a log-extended-skew-normal fitted by matching the first four
//     sample moments including kurtosis (Jin et al., TCAS-II 2022).
//   - LVF²: the paper's contribution — a two-component skew-normal mixture
//     fitted by EM (§3.2): K-means + method-of-moments initialisation,
//     posterior-responsibility E-step (eq. 6), and a weighted
//     method-of-moments M-step, finished by ECM rounds whose M-step is an
//     exact weighted skew-normal MLE solved by Newton's method, with an
//     optional maximum-likelihood polish via Nelder–Mead on the full
//     7-parameter log-likelihood (eq. 5).
package fit

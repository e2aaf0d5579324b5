#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-analysis
//!
//! The queueing analysis of the paper's §7: at what memory threshold does
//! Prioritized Packet Loss stop losing important packets?
//!
//! * [`mm1n`] — the M/M/1/N closed form (eq. 1): with high-priority
//!   arrivals Poisson(λ), exponential service μ, and `N` packet slots
//!   above the base threshold, the loss probability is
//!   `P = (1-ρ)/(1-ρ^{N+1}) · ρ^N` (by PASTA, the blocking probability).
//! * [`priority_chain`] — the 2N-state birth–death chain for three
//!   priority levels (eqs. 2–3): arrivals at rate λ₁+λ₂ below the
//!   medium watermark, λ₂ above it, service μ throughout.
//! * [`birth_death`] — a general birth–death stationary-distribution
//!   solver used to cross-check the closed forms.
//! * [`montecarlo`] — a discrete-event M/M/1/N simulator validating both
//!   against sampled behaviour.

pub mod birth_death;
pub mod mm1n;
pub mod montecarlo;
pub mod priority_chain;

pub use birth_death::stationary_distribution;
pub use mm1n::loss_probability as mm1n_loss;
pub use montecarlo::{simulate_mm1n, SimResult};
pub use priority_chain::{high_priority_loss, medium_priority_loss};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_chain_solver() {
        for &rho in &[0.1, 0.5, 0.9] {
            for &n in &[1usize, 5, 20, 50] {
                let closed = mm1n_loss(rho, n);
                // M/M/1/N as a birth-death chain: N+1 states, birth rho,
                // death 1; blocking probability = p_N.
                let births = vec![rho; n];
                let deaths = vec![1.0; n];
                let p = stationary_distribution(&births, &deaths);
                let diff = (closed - p[n]).abs();
                assert!(diff < 1e-12, "rho={rho} N={n}: {closed} vs {}", p[n]);
            }
        }
    }
}

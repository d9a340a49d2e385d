//! Analytic oracles: the simulator against closed forms it does not
//! compute itself.
//!
//! Max-min fairness on one bottleneck. `n` flows of sizes
//! `s_1 < … < s_n` start together on a link of capacity `C` with no
//! background. While `k` flows are live each gets `C / k`, so the
//! `k`-th completion comes at
//!
//! ```text
//! t_k = t_{k-1} + (n - k + 1) (s_k - s_{k-1}) / C,   t_0 = 0, s_0 = 0.
//! ```
//!
//! The flow kernel rounds each completion up to the clock's microsecond,
//! so an instant may trail the closed form by at most that much.

use vod_integration_tests::grnet;
use vod_net::topologies::grnet::GrnetLink;
use vod_sim::flow::{FlowId, FlowNetwork};
use vod_sim::SimDuration;

/// Completion instants of `sizes` (Mbit, ascending) on a link of
/// `capacity` Mbps, by the closed form.
fn closed_form(sizes: &[f64], capacity: f64) -> Vec<f64> {
    let n = sizes.len();
    let mut t = 0.0;
    let mut prev = 0.0;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            t += (n - i) as f64 * (s - prev) / capacity;
            prev = s;
            t
        })
        .collect()
}

/// Runs `sizes` (Mbit, ascending) together on GRNET's Patra–Athens
/// link and checks every rate and completion instant.
fn check_single_bottleneck(sizes: &[f64]) {
    let g = grnet();
    let link = g.link(GrnetLink::PatraAthens);
    let capacity = GrnetLink::PatraAthens.capacity().as_f64();
    assert_eq!(capacity, 2.0, "Patra–Athens is one of GRNET's 2 Mbps links");
    let mut net = FlowNetwork::new(g.topology().clone());
    let mut live: Vec<FlowId> = sizes
        .iter()
        .map(|&s| net.add_flow([link], s).expect("a valid flow"))
        .collect();

    let expected = closed_form(sizes, capacity);
    let mut clock = SimDuration::ZERO;
    for (k, &t_k) in expected.iter().enumerate() {
        let share = capacity / live.len() as f64;
        for &id in &live {
            let rate = net.rate(id).expect("a live flow").as_f64();
            assert!(
                (rate - share).abs() <= 1e-12 * capacity,
                "{} live flows: rate {rate}, expected C/k = {share}",
                live.len()
            );
        }
        let (next, dt) = net.next_completion().expect("a live flow progresses");
        assert_eq!(next, live[0], "the smallest live flow finishes first");
        clock += dt;
        let done = net.advance(dt);
        assert_eq!(done, [live[0]], "completion {} finishes one flow", k + 1);
        live.remove(0);
        let lag = clock.as_secs_f64() - t_k;
        assert!(
            (0.0..=1e-6 + 1e-9).contains(&lag),
            "completion {} at {} s, closed form {t_k} s",
            k + 1,
            clock.as_secs_f64()
        );
    }
    assert_eq!(net.flow_count(), 0);
}

#[test]
fn single_bottleneck_shares_and_completions_match_the_closed_form() {
    check_single_bottleneck(&[3.7, 11.2, 19.9, 26.05, 41.3]);
}

#[test]
fn single_bottleneck_holds_for_near_equal_sizes() {
    check_single_bottleneck(&[100.0, 100.000_5, 100.001, 250.0, 250.25]);
}

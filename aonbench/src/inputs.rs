//! Seeded inputs for every workload.
//!
//! Message bodies come from the repository's corpus generator (the
//! paper's AONBench-style SOAP purchase orders); everything else — which
//! use case each message is sent to, which DPI bodies carry a signature
//! and where — is chosen here from the workload seed. Each operation
//! carries its expected verdict, computed by [`crate::oracle`].

use crate::oracle;
use aon_server::corpus::Corpus;
use aon_server::UseCase;

/// Distinct message bodies per workload: enough (5 MiB at 5 KB) that
/// payloads stream through the caches as network data would.
pub const MESSAGES: usize = 1024;

/// Body size of the one-shot requests: the corpus generator's floor.
pub const ONESHOT_BODY: usize = 1024;

/// SplitMix64: the benchmark's own deterministic choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        let n64 = u64::try_from(n).expect("usize fits u64");
        usize::try_from(self.next_u64() % n64).expect("value below a usize bound")
    }
}

/// One request the benchmark sends, with its expected answer.
#[derive(Debug, Clone)]
pub struct Op {
    /// Use case (selects the endpoint).
    pub use_case: UseCase,
    /// The complete HTTP request.
    pub request: Vec<u8>,
    /// Expected verdict: `200 routed="true"` or `422 routed="false"`.
    pub expect_routed: bool,
}

/// The endpoint path of a use case.
pub fn path(uc: UseCase) -> &'static str {
    match uc {
        UseCase::Fr => "/aon/fr",
        UseCase::Cbr => "/aon/cbr",
        UseCase::Sv => "/aon/sv",
        UseCase::Dpi => "/aon/dpi",
        UseCase::Crypto => "/aon/crypto",
    }
}

/// Build the operation sending `body` to `uc`; `close` asks the server
/// to close the connection after answering.
pub fn op(uc: UseCase, body: Vec<u8>, close: bool, planted: bool) -> Op {
    let expect_routed = match uc {
        UseCase::Fr => true,
        UseCase::Cbr => oracle::cbr_routes(&body),
        UseCase::Sv => oracle::sv_valid(&body),
        UseCase::Dpi => !planted,
        UseCase::Crypto => oracle::crypto_routes(&body),
    };
    let mut request = format!(
        "POST {} HTTP/1.1\r\nHost: aon-bench\r\nContent-Type: text/xml\r\n\
         Content-Length: {}\r\n{}\r\n",
        path(uc),
        body.len(),
        if close { "Connection: close\r\n" } else { "" }
    )
    .into_bytes();
    request.extend_from_slice(&body);
    Op { use_case: uc, request, expect_routed }
}

/// `n` SOAP bodies of about `size` bytes from the corpus generator.
pub fn bodies(seed: u64, n: usize, size: usize) -> Vec<Vec<u8>> {
    Corpus::generate_sized(seed, n, size)
        .variants
        .into_iter()
        .map(|v| v.http[v.body_start..].to_vec())
        .collect()
}

/// Ops in one round of either mix: three use cases in turn.
pub const ROUND: usize = 3;

/// `soap_mix`: FR, CBR, SV in turn over 1,024 distinct 5 KB bodies, so
/// every body is sent to every use case once per 3,072 operations.
pub fn soap_mix(seed: u64) -> Vec<Op> {
    let bodies = bodies(seed, MESSAGES, aon_server::corpus::MESSAGE_SIZE);
    let order = [UseCase::Fr, UseCase::Cbr, UseCase::Sv];
    (0..3 * MESSAGES)
        .map(|k| op(order[k % 3], bodies[k % MESSAGES].clone(), false, false))
        .collect()
}

/// Salt separating the secure corpus from the SOAP one under one seed.
const SECURE_SALT: u64 = 0x5EC0_5EC0;

/// Plant signature `rule` into `body` right after a tag chosen by `rng`.
pub fn plant(body: &mut Vec<u8>, rule: usize, rng: &mut Rng) {
    let tag_ends: Vec<usize> =
        body.iter().enumerate().filter(|(_, &b)| b == b'>').map(|(i, _)| i + 1).collect();
    let at = tag_ends[rng.below(tag_ends.len())];
    let sig = oracle::SIGNATURES[rule].as_bytes();
    body.splice(at..at, sig.iter().copied());
}

/// The secure bodies: odd-indexed ones carry one signature each, all
/// twelve rules in turn (starting from a seed-chosen rule), each at a
/// seeded tag boundary.
pub fn secure_bodies(seed: u64) -> Vec<(Vec<u8>, bool)> {
    let mut rng = Rng::new(seed ^ SECURE_SALT);
    let first_rule = rng.below(oracle::SIGNATURES.len());
    bodies(seed ^ SECURE_SALT, MESSAGES, aon_server::corpus::MESSAGE_SIZE)
        .into_iter()
        .enumerate()
        .map(|(i, mut body)| {
            let planted = i % 2 == 1;
            if planted {
                plant(&mut body, (first_rule + i / 2) % oracle::SIGNATURES.len(), &mut rng);
            }
            (body, planted)
        })
        .collect()
}

/// `secure_mix`: DPI, CRYPTO, CRYPTO in turn over the secure bodies. DPI
/// lands on even and odd bodies alike, so half its messages carry a
/// signature.
pub fn secure_mix(seed: u64) -> Vec<Op> {
    let bodies = secure_bodies(seed);
    (0..3 * MESSAGES)
        .map(|k| {
            let (body, planted) = &bodies[k % MESSAGES];
            if k % 3 == 0 {
                op(UseCase::Dpi, body.clone(), false, *planted)
            } else {
                op(UseCase::Crypto, body.clone(), false, false)
            }
        })
        .collect()
}

/// The one-shot pass of traced runs: FR on 1 KiB bodies, each request
/// asking the server to close its connection.
pub fn fr_oneshot(seed: u64) -> Vec<Op> {
    bodies(seed, MESSAGES, ONESHOT_BODY)
        .into_iter()
        .map(|b| op(UseCase::Fr, b, true, false))
        .collect()
}

/// The cold-start probe: one FR request on a 1 KiB body, asking to close.
pub fn probe(seed: u64) -> Op {
    let body = bodies(seed ^ 0xC01D, 1, ONESHOT_BODY).swap_remove(0);
    op(UseCase::Fr, body, true, false)
}

/// The ledger set: `per_case` keep-alive messages for each of the five
/// use cases, on 5 KB bodies (DPI on clean ones, so each scan runs in
/// full).
pub fn ledger(seed: u64, per_case: usize, dpi_per_case: usize) -> Vec<(UseCase, Vec<Op>)> {
    let soap = bodies(seed, per_case, aon_server::corpus::MESSAGE_SIZE);
    let secure: Vec<Vec<u8>> =
        secure_bodies(seed).into_iter().filter(|(_, planted)| !planted).map(|(b, _)| b).collect();
    let set = |uc: UseCase, src: &[Vec<u8>], n: usize| {
        (uc, src.iter().cycle().take(n).map(|b| op(uc, b.clone(), false, false)).collect())
    };
    vec![
        set(UseCase::Fr, &soap, per_case),
        set(UseCase::Cbr, &soap, per_case),
        set(UseCase::Sv, &soap, per_case),
        set(UseCase::Dpi, &secure, dpi_per_case),
        set(UseCase::Crypto, &secure, per_case),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_server::Engine;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.below(13);
            assert_eq!(x, b.below(13));
            assert!(x < 13);
        }
    }

    #[test]
    fn every_planted_signature_trips_the_scanner_and_clean_bodies_do_not() {
        // Checks the benchmark's plant set, not its oracle: if a planted
        // string stopped matching its rule, DPI expectations would be
        // wrong for reasons of the benchmark's own making.
        let engine = Engine::new();
        let clean = bodies(3, 4, aon_server::corpus::MESSAGE_SIZE);
        let mut rng = Rng::new(3);
        for body in &clean {
            assert_eq!(engine.process_native(UseCase::Dpi, body), Ok(true));
        }
        for rule in 0..oracle::SIGNATURES.len() {
            let mut body = clean[rule % clean.len()].clone();
            plant(&mut body, rule, &mut rng);
            assert_eq!(
                engine.process_native(UseCase::Dpi, &body),
                Ok(false),
                "signature {rule} ({}) not detected",
                oracle::SIGNATURES[rule]
            );
        }
    }

    #[test]
    fn secure_mix_plants_half_the_dpi_bodies_with_every_rule() {
        let ops = secure_mix(11);
        let dpi: Vec<&Op> = ops.iter().filter(|o| o.use_case == UseCase::Dpi).collect();
        let planted = dpi.iter().filter(|o| !o.expect_routed).count();
        assert_eq!(planted * 2, dpi.len());
        for sig in oracle::SIGNATURES {
            assert!(dpi.iter().any(|o| oracle::contains(&o.request, sig.as_bytes())), "{sig}");
        }
        assert_eq!(ops.len(), 3 * MESSAGES);
    }

    #[test]
    fn soap_mix_has_both_verdicts_for_cbr_and_sv() {
        let ops = soap_mix(5);
        for uc in [UseCase::Cbr, UseCase::Sv] {
            let of_uc: Vec<&Op> = ops.iter().filter(|o| o.use_case == uc).collect();
            assert_eq!(of_uc.len(), MESSAGES);
            assert!(of_uc.iter().any(|o| o.expect_routed));
            assert!(of_uc.iter().any(|o| !o.expect_routed));
        }
    }

    #[test]
    fn oneshot_requests_ask_to_close() {
        let ops = fr_oneshot(1);
        assert!(ops.iter().all(|o| oracle::contains(&o.request, b"Connection: close")));
        assert!(ops.iter().all(|o| (1100..1600).contains(&o.request.len())));
    }
}

//! Every pass string the repository runs — the checker's sweep configs, the
//! benchmark pipeline, the experiment binaries and the tests — resolves
//! cleanly against the pass registry's option schemas.

use mao::pass::{parse_invocations, resolve};

/// Pass strings with options outside the checker's configs, as written in
/// the experiment binaries and tests (`format!` placeholders filled in).
const REPO_PASS_STRINGS: &[&str] = &[
    // The benchmark pipeline (`bench_e2e/src/inputs.rs`).
    "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT",
    // The paper's example invocation, minus the `ASM` pseudo-pass.
    "LFIND=trace[0]",
    "LFIND=trace[1]",
    // crates/bench experiments.
    "REDMOV:REDTEST:LOOP16=max-size[18]:NOPIN=seed[1],density[0.005],maxlen[1]:SCHED",
    "REDZEXT=count-only:REDTEST=count-only:REDMOV=count-only:ADDADD=count-only",
    "NOPIN=seed[7],density[0.25]",
    "SCHED=policy[source-order]",
    // Tests and the daemon's slow-request recipe.
    "PANIC=sleep_ms[2000],func[nosuch]",
    "PANIC=sleep_ms[3000],func[nosuch]",
    "MISOPT=mode[imm],nth[0]",
    "MISOPT=mode[drop],nth[1]",
    "ADDADD=dump-before",
    "REDZEXT=trace[2]:REDTEST=trace[2]:REDMOV=trace[2]:ADDADD=trace[2]:CONSTFOLD=trace[2]:\
     DCE=trace[2]:SCHED=trace[2],policy[source-order]:BRALIGN:LOOP16:LSDFIT",
    "SUPEROPT=seed[42]",
    "SUPEROPT=seed[7]",
    "SUPEROPT=seed[42],inject-bogus-rewrite",
    "SUPEROPT=seed[42],max-window[6],cache-dir[/tmp/superopt-cache]",
    "SUPEROPT=seed[3],max-window[5],diff-states[3],iters[16],max-candidates[32]",
    "SUPEROPT=seed[42],max-window[6],diff-states[3],iters[24],max-candidates[48],cache-dir[/tmp/c]",
];

#[test]
fn every_repo_pass_string_resolves() {
    mao_superopt::register();
    let configs = mao_check::default_pass_configs()
        .into_iter()
        .chain(mao_check::a64_pass_configs());
    let strings = configs.chain(REPO_PASS_STRINGS.iter().map(|s| s.to_string()));
    for spec in strings {
        let invs = parse_invocations(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        resolve(&invs).unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
}

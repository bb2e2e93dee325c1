//! Walk every built-in pass descriptor's option schema: one valid value per
//! option runs, and an unknown key, a malformed value or an out-of-range
//! value is refused by `resolve` (and so by the pipeline) before any pass
//! runs.

use mao::pass::{
    descriptors, parse_invocations, resolve, run_pipeline, OptionKind, OptionSpec, PassError,
    COMMON_OPTIONS,
};
use mao::MaoUnit;

/// A unit with a loop, a planted redundant test and an add/add pair, so
/// most passes find something to do.
const INPUT: &str = "\t.text\n\t.type\tf, @function\nf:\n\tmovl $3, %ecx\n.L1:\n\tsubl $1, %ecx\n\
                     \ttestl %ecx, %ecx\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n\tret\n";

/// Options a pass needs so that a valid run of it is harmless: `PANIC`
/// only returns cleanly when its target function does not exist.
fn base_options(pass: &str) -> &'static str {
    match pass {
        "PANIC" => "func[nosuch]",
        _ => "",
    }
}

/// `NAME=base,opt` as one invocation string.
fn invocation(pass: &str, option: &str) -> String {
    let opts: Vec<&str> = [base_options(pass), option]
        .into_iter()
        .filter(|o| !o.is_empty())
        .collect();
    if opts.is_empty() {
        pass.to_string()
    } else {
        format!("{pass}={}", opts.join(","))
    }
}

fn spelled(key: &str, value: &str) -> String {
    format!("{key}[{value}]")
}

/// One accepted spelling of `spec`.
fn valid(spec: &OptionSpec) -> String {
    match spec.kind {
        OptionKind::Flag => spec.key.to_string(),
        OptionKind::U64(min, _) => spelled(spec.key, &min.to_string()),
        OptionKind::F64(min, _) => spelled(spec.key, &min.to_string()),
        OptionKind::Str => spelled(spec.key, "nosuch"),
        OptionKind::Enum(spellings) => spelled(spec.key, spellings[0]),
    }
}

/// Spellings of `spec` that must be refused.
fn invalid(spec: &OptionSpec) -> Vec<String> {
    let mut out = Vec::new();
    match spec.kind {
        OptionKind::Flag => out.push(spelled(spec.key, "1")),
        OptionKind::U64(min, max) => {
            out.push(spelled(spec.key, "abc"));
            out.push(spelled(spec.key, "-1"));
            if min > 0 {
                out.push(spelled(spec.key, &(min - 1).to_string()));
            }
            if max < u64::MAX {
                out.push(spelled(spec.key, &(max + 1).to_string()));
            }
        }
        OptionKind::F64(min, max) => {
            out.push(spelled(spec.key, "abc"));
            out.push(spelled(spec.key, "NaN"));
            out.push(spelled(spec.key, &(min - 1.0).to_string()));
            out.push(spelled(spec.key, &(max + 1.0).to_string()));
        }
        OptionKind::Str => {}
        OptionKind::Enum(spellings) => out.push(spelled(spec.key, &format!("{}-x", spellings[0]))),
    }
    out
}

fn assert_bad_options(spec: &str, pass: &str, key: &str) {
    let invs = parse_invocations(spec).unwrap();
    match resolve(&invs) {
        Err(PassError::BadOptions(m)) => {
            assert!(m.contains(pass) && m.contains(key), "{spec}: {m}")
        }
        other => panic!("{spec}: expected BadOptions, got {other:?}"),
    }
    let mut unit = MaoUnit::parse(INPUT).unwrap();
    let before = unit.emit();
    let err = run_pipeline(&mut unit, &invs, None).unwrap_err();
    assert!(matches!(err, PassError::BadOptions(_)), "{spec}: {err:?}");
    assert_eq!(unit.emit(), before, "{spec}: a refused pipeline ran");
}

#[test]
fn every_option_accepts_a_valid_value_and_refuses_bad_ones() {
    let passes = descriptors();
    assert!(passes.len() >= 19, "{} passes registered", passes.len());
    for pass in &passes {
        for spec in pass.options.iter().chain(COMMON_OPTIONS) {
            let good = invocation(pass.name, &valid(spec));
            let invs = parse_invocations(&good).unwrap();
            resolve(&invs).unwrap_or_else(|e| panic!("{good}: {e}"));
            let mut unit = MaoUnit::parse(INPUT).unwrap();
            run_pipeline(&mut unit, &invs, None).unwrap_or_else(|e| panic!("{good}: {e}"));
            for bad in invalid(spec) {
                assert_bad_options(&invocation(pass.name, &bad), pass.name, spec.key);
            }
        }
        let unknown = invocation(pass.name, "nosuchoption[3]");
        assert_bad_options(&unknown, pass.name, "nosuchoption");
    }
}

#[test]
fn named_bad_options_are_refused() {
    for (spec, pass, key) in [
        ("NOPIN=trace[256]", "NOPIN", "trace"),
        ("SCHED=policy[sourc-order]", "SCHED", "policy"),
        ("MISOPT=mode[foo]", "MISOPT", "mode"),
        ("NOPIN=density[abc]", "NOPIN", "density"),
        ("ADDADD=count-only[0]", "ADDADD", "count-only"),
        ("BRALIGN=legacy-relax", "BRALIGN", "legacy-relax"),
        ("REDTEST:ADDADD:SCHED=bogus", "SCHED", "bogus"),
    ] {
        assert_bad_options(spec, pass, key);
    }
}

#[test]
fn unknown_pass_is_refused_before_any_pass_runs() {
    let invs = parse_invocations("REDTEST:ADDADD:NOSUCH").unwrap();
    assert_eq!(
        resolve(&invs).unwrap_err(),
        PassError::UnknownPass("NOSUCH".into())
    );
    let mut unit = MaoUnit::parse(INPUT).unwrap();
    let before = unit.emit();
    assert!(run_pipeline(&mut unit, &invs, None).is_err());
    assert_eq!(unit.emit(), before);
}

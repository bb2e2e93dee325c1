//! End-to-end tests of the `mao` command-line driver, exercising the
//! paper's invocation style (`--mao=PASS=opt[val]:ASM=o[path]`).

use std::process::Command;

fn mao() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mao"))
}

fn write_input(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mao-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write input");
    path
}

const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

#[test]
fn paper_style_invocation_writes_output_file() {
    let input = write_input("in1.s", INPUT);
    let output = input.with_file_name("out1.s");
    let status = mao()
        .arg("--mao=REDTEST:ADDADD:ASM=o[".to_string() + output.to_str().unwrap() + "]")
        .arg(&input)
        .status()
        .expect("driver runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&output).expect("output written");
    assert!(!text.contains("testl"), "{text}");
    assert!(text.contains("addl $7, %eax"), "{text}");
}

#[test]
fn default_emission_goes_to_stdout() {
    let input = write_input("in2.s", INPUT);
    let out = mao()
        .arg("--mao=REDTEST")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("subl $16, %r15d"));
    assert!(!stdout.contains("testl"));
    // Pass statistics go to stderr, like the paper's tracing.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REDTEST"), "{stderr}");
}

#[test]
fn lfind_trace_matches_paper_example() {
    // The paper's own example: --mao=LFIND=trace[0]:ASM=o[/dev/null].
    let input = write_input(
        "in3.s",
        "\t.type\tf, @function\nf:\n.L:\n\taddl $1, %eax\n\tjne .L\n\tret\n",
    );
    let out = mao()
        .arg("--mao=LFIND=trace[1]:ASM=o[/dev/null]")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("loop"), "{stderr}");
}

#[test]
fn list_passes_shows_registry() {
    let out = mao().arg("--list-passes").output().expect("driver runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["REDTEST", "LOOP16", "SCHED", "NOPIN", "LFIND", "ASM"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    // Options render from the descriptors: SCHED's policy and its spellings.
    assert!(
        stdout.contains("policy") && stdout.contains("critical-path|source-order"),
        "{stdout}"
    );
}

#[test]
fn bad_pass_options_fail_before_any_pass_runs() {
    let input = write_input("in_badopts.s", INPUT);
    let out = mao()
        .arg(
            "--mao=BRALIGN=legacy-relax,nosuchoption[3]:ADDADD=bogus:SCHED=policy[sourc-order]:\
             NOPIN=trace[256],density[abc]",
        )
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no output for a refused pass string");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("BRALIGN") && stderr.contains("legacy-relax"),
        "{stderr}"
    );
}

#[test]
fn pseudo_pass_options_are_checked_before_the_input_is_read() {
    let input = write_input("in_badasm.s", INPUT);
    let target = input.with_file_name("badasm_out.s");
    let _ = std::fs::remove_file(&target);
    let out = mao()
        .arg(format!("--mao=REDTEST:ASM=oo[{}]", target.display()))
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(!out.status.success(), "a misspelt ASM key must fail");
    assert!(out.stdout.is_empty(), "nothing printed for a refused key");
    assert!(!target.exists(), "nothing written for a refused key");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --mao options") && stderr.contains("`oo`"),
        "{stderr}"
    );

    // READ takes no options; the check runs before the input is read, so
    // a missing input file is not what fails.
    let out = mao()
        .arg("--mao=READ=fast:REDTEST")
        .arg(input.with_file_name("no_such_input.s"))
        .output()
        .expect("driver runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --mao options") && stderr.contains("`fast`"),
        "{stderr}"
    );

    // The one valid ASM key still writes the file.
    let out = mao()
        .arg(format!("--mao=READ:REDTEST:ASM=o[{}]", target.display()))
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
    assert!(std::fs::read_to_string(&target).unwrap().contains("ret"));
}

#[test]
fn profile_flag_writes_chrome_trace() {
    let input = write_input("in_profile.s", INPUT);
    let profile = input.with_file_name("profile.json");
    let out = mao()
        .arg("--mao=REDTEST:ADDADD")
        .arg("--profile")
        .arg(&profile)
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Chrome trace profile"), "{stderr}");
    let trace = std::fs::read_to_string(&profile).expect("profile written");
    let json = mao_serve::Json::parse(&trace).expect("profile is valid JSON");
    let events = json.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "spans were recorded");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(mao_serve::Json::as_str))
        .collect();
    assert!(names.contains(&"REDTEST"), "{names:?}");
    assert!(
        names.contains(&"f"),
        "per-function spans present: {names:?}"
    );
}

#[test]
fn bad_pass_name_fails_cleanly() {
    let input = write_input("in4.s", INPUT);
    let out = mao()
        .arg("--mao=NOSUCH")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown pass"));
}

#[test]
fn parse_error_reports_line() {
    let input = write_input("in5.s", "nop\nbogus_mnemonic %eax\n");
    let out = mao().arg(&input).output().expect("driver runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn missing_input_fails() {
    let out = mao().output().expect("driver runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `--jobs` far past the host's cores on a unit past the parser's 64 KiB
/// parallel threshold: the parser bounds its chunks by the input and the
/// worker count is capped at the host's parallelism, so the run ends, with
/// the bytes of `--jobs 1`.
#[test]
fn huge_jobs_on_a_large_unit_match_one_job() {
    let text: String = (0..1000)
        .map(|k| {
            format!(
                "\t.type\tf{k}, @function\nf{k}:\n\tsubl\t$16, %r15d\n\ttestl\t%r15d, %r15d\n\
                 \tjne\t.L{k}\n\taddl\t$3, %eax\n\taddl\t$4, %eax\n.L{k}:\n\tret\n"
            )
        })
        .collect();
    assert!(text.len() >= 64 * 1024);
    let input = write_input("huge_jobs.s", &text);
    let run = |jobs: &str| {
        let out = mao()
            .args(["--jobs", jobs, "--mao=REDTEST:ADDADD"])
            .arg(&input)
            .output()
            .expect("mao runs");
        assert!(out.status.success(), "--jobs {jobs}: {out:?}");
        out.stdout
    };
    let one = run("1");
    assert!(String::from_utf8_lossy(&one).contains("addl $7, %eax"));
    assert_eq!(run("9223372036854775808"), one);
}

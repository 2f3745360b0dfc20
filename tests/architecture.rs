//! The architecture guards: "one implementation per idea" facts about the
//! source tree, checked by reading it. Each guard is a list of rules, and its
//! doc says which idea it keeps to one implementation and why.
//!
//! One walker lists the repository's files, skipping every `target`, `vendor`
//! and `.git` directory and this file, which names every needle. One
//! classifier marks each line as a comment (first non-blank characters `//`),
//! as test code (from a column-0 `#[cfg(test)]` on, which ends every file
//! that has one) or as code, and notes the last line that named a `fn` and
//! the header of the `impl` block the line lies in.

use std::fs;
use std::path::Path;

use Hit::{Any, File, Matches, Unless};

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Code,
    Comment,
    Test,
}

const CODE: &[Kind] = &[Kind::Code];
const NOT_COMMENT: &[Kind] = &[Kind::Code, Kind::Test];
const ALL: &[Kind] = &[Kind::Code, Kind::Comment, Kind::Test];

enum Hit {
    /// Lines that contain any of these `|`-separated needles.
    Any(&'static str),
    /// Lines that contain the first needle and not the second.
    Unless(&'static str, &'static str),
    /// Lines the function accepts; the name is for the failure message.
    Matches(&'static str, fn(&Site) -> bool),
    /// One site per file in scope.
    File,
}

/// Counts the lines (or files) of its scope that `hit` hits: there must be
/// `expect` of them.
struct Rule {
    expect: usize,
    hit: Hit,
    /// `|`-separated globs of the files read: `*` matches within one path
    /// component, `**` any components, and `{a,b}` either alternative.
    files: &'static str,
    /// Globs of the files in `files` that are allowed sites, so not read.
    except: &'static str,
    reads: &'static [Kind],
}

/// A rule over code lines.
const fn rule(expect: usize, hit: Hit, files: &'static str) -> Rule {
    Rule { expect, hit, files, except: "", reads: CODE }
}

impl Rule {
    const fn except(self, except: &'static str) -> Rule {
        Rule { except, ..self }
    }

    const fn reads(self, reads: &'static [Kind]) -> Rule {
        Rule { reads, ..self }
    }

    fn covers(&self, path: &str) -> bool {
        let glob = |g| glob_matches(g, path);
        self.files.split('|').any(glob) && !self.except.split('|').any(glob)
    }

    fn what(&self) -> String {
        match self.hit {
            Any(needles) => needles.to_string(),
            Unless(needle, but) => format!("{needle} (not {but})"),
            Matches(name, _) => name.to_string(),
            File => self.files.to_string(),
        }
    }
}

const CRATES_SRC: &str = "crates/*/src/**/*.rs";
const PIPELINE_SRC: &str = "crates/pipeline/src/**/*.rs";
const CODEC: &str = "crates/telemetry/src/codec.rs";
const LAYER: &str = "crates/nn/src/layer.rs";
/// Library, bench, example and benchmark code.
const ALL_SRC: &str = "crates/*/{src,benches}/**/*.rs|{examples,src,pmbench/src}/**/*.rs";

/// One stage-update core: the optimizer's per-chunk step, gradient clipping
/// and the T2 decay γ must each be called from exactly one place in library
/// code outside the crate that defines it. A second call site is a second
/// copy of the training step's arithmetic, and from then on only lockstep
/// tests hold the two together.
const SINGLE_CORE: &[Rule] = &[
    rule(1, Any("step_chunk("), CRATES_SRC).except("crates/optim/**"),
    rule(1, Any("clip_grad_norm("), CRATES_SRC).except("crates/optim/**"),
    rule(1, Any("gamma_from_d("), CRATES_SRC).except("crates/theory/**"),
];

/// One byte codec. Wire frames, journal segments and checkpoints are all
/// written by `pipemare_telemetry::codec::Writer` and read by its `Reader`,
/// whose `MAX_FRAME` caps a frame. A `to_le_bytes(` or `from_le_bytes(`
/// anywhere else in library code is a second codec in the making (one that
/// trusts lengths it reads, or splits frames by hand), and a second
/// frame-length constant is a second idea of how large a frame may be.
const SINGLE_CODEC: &[Rule] = &[
    rule(0, Any("to_le_bytes(|from_le_bytes("), CRATES_SRC).except(CODEC),
    rule(0, Matches("a frame-length cap", frame_cap), CRATES_SRC).except(CODEC),
    rule(1, Matches("MAX_FRAME", |s| s.text().starts_with("pub const MAX_FRAME: usize")), CODEC)
        .reads(ALL),
];

/// One pipeline executor. A run is an `OpenPlan` (one lazy op row per
/// stage), executed one op at a time by one stage step, `StageCursor::step`,
/// with two drivers in crates/pipeline: `run_stage`, which blocks on one
/// stage's links and has two callers (`with_pipeline`'s threads and the
/// comms token worker), and `walk`, which steps every stage on the calling
/// thread. Only the plan and the executor call `.feeds(`: a private token
/// walk anywhere else (a test copying the loop) would have to, and from then
/// on only tests would hold it in step with the real one. Every driver
/// injects by one rule, `OpenPlan::inject_bound`: `Pipe::minibatch`, `walk`
/// and the comms token hub call it. What an op does is a `StageWork` value,
/// and the sleep is one of them, `Sleep`. A second `thread::scope(` in
/// crates/pipeline is a second executor; a sleep outside `impl StageWork for
/// Sleep`, a second library `StageWork` or a `work_per_stage` duration
/// threaded through the executor is a second copy of what an op does;
/// `select!` is arrival-order scheduling, which cannot promise the plan's
/// fixed op order. The names of the executors this replaced, of the slot
/// simulator that once built a second 1F1B order, of the per-op function
/// both loops once called, of the plan's GPipe-only flush flag and of the
/// whole-plan cap a token worker once built must not reappear as forwarders
/// or in documentation.
const SINGLE_EXECUTOR: &[Rule] = &[
    rule(1, Any("thread::scope("), PIPELINE_SRC),
    rule(1, Any("thread::sleep("), PIPELINE_SRC),
    rule(0, Matches("thread::sleep( outside impl StageWork for Sleep", stray_sleep), PIPELINE_SRC),
    rule(1, Any("StageWork for "), CRATES_SRC),
    rule(0, Any("work_per_stage"), "crates/pipeline/src/**").reads(ALL),
    rule(1, Any("fn run_stage<"), CRATES_SRC),
    rule(2, Any("run_stage("), CRATES_SRC),
    rule(1, Any("struct StageCursor"), CRATES_SRC),
    rule(1, Any("fn step<"), PIPELINE_SRC),
    rule(2, Any(".step("), PIPELINE_SRC),
    rule(0, Any(".feeds("), "**/*.rs").except("crates/pipeline/src/{plan,executor}.rs").reads(ALL),
    rule(3, Unless("inject_bound(", "fn inject_bound"), CRATES_SRC),
    rule(0, Any("select!"), "crates/pipeline/**/*.rs").reads(ALL),
    // The histories and the current issue may name what was retired.
    rule(0, Any(RETIRED_EXECUTOR_NAMES), "**/*.{rs,md,sh,yml}")
        .except("**/{CHANGES,ROADMAP,ISSUE}.md")
        .reads(ALL),
    rule(0, File, "crates/pipeline/src/stage.rs"),
];

const RETIRED_EXECUTOR_NAMES: &str = "run_threaded_pipeline|run_recompute_pipeline|StageFlow|\
    StageEvent|FwdOutcome|ThreadedPipelineReport|RecomputePipelineReport|SlotOp|\
    Schedule::simulate|run_stage_op|flush_every|MAX_PLAN_CELLS";

/// One epoch loop. Image and translation runs go through `run` in
/// crates/core/src/runners.rs (shuffled minibatches, T3 warmup, microbatch
/// split, divergence and health-halt records, per-epoch evaluation); a
/// `Task` supplies only how a microbatch is built and how parameters are
/// scored. Regression keeps its own step loop, `run_regression_training`:
/// its batch is the fixed, unshuffled full dataset. A second
/// `MinibatchIter::new(` or a third in-process `train_minibatch(` call in
/// crates/core is a second copy of that loop, which from then on only tests
/// hold to the first. The distributed trainer's `drive` in distributed.rs
/// steps a `DistributedTrainer` over the caller's own minibatches and is
/// counted on its own. The per-family entry points `run` replaced (the
/// image one with its `_observed` and `_with_metrics` variants) must not
/// reappear in code, in `*.md` below the top level, or in README.md,
/// DESIGN.md and EXPERIMENTS.md; the other top-level notes (histories,
/// plans, paper excerpts) may still name them.
const SINGLE_EPOCH_LOOP: &[Rule] = &[
    rule(1, Any("MinibatchIter::new("), "crates/core/src/**/*.rs")
        .except("crates/core/src/*/**/distributed.rs"),
    rule(2, Unless("train_minibatch(", "fn train_minibatch("), "crates/core/src/**/*.rs")
        .except("crates/core/src/**/distributed.rs"),
    rule(1, Any("train_minibatch("), "crates/core/src/distributed.rs"),
    rule(0, Any(RETIRED_RUNNER_NAMES), "**/*.{rs,sh,yml}|*/**/*.md|{README,DESIGN,EXPERIMENTS}.md")
        .reads(ALL),
];

const RETIRED_RUNNER_NAMES: &str =
    "run_image_training|run_translation_training|run_regression_training_observed";

/// One per-stage fold of a trace. The timeline summary, `pm trace drift`,
/// the live store's samples and the health monitor's τ histograms all read
/// `StageFold` in crates/telemetry/src/summary.rs, which buckets each
/// stage's forward, backward and replay spans once and alone calls
/// `delay_slot_samples`, the one definition of measured τ. That call or a
/// `SpanKind::Backward` / `SpanKind::Recompute` pattern elsewhere in the
/// telemetry library is a second scan of the trace by stage, with its own
/// idea of which spans count. event.rs and flight.rs only encode span kinds.
const SINGLE_FOLD: &[Rule] = &[rule(
    0,
    Any("delay_slot_samples(|SpanKind::Backward|SpanKind::Recompute"),
    "crates/telemetry/src/**/*.rs",
)
.except("crates/telemetry/src/{summary,event,flight}.rs")];

/// One copy of the pipeline's closed forms. Table 1's forward delay in
/// slots `2(P−1−s)+1`, App. D's recompute delay `2(S − s mod S)` and the
/// GPipe bubble fraction `(P−1)/(N+P−1)` are defined once, in
/// crates/theory/src/delays.rs; the pipeline clock, the cost models, the
/// comms stage and telemetry's summaries, drift, live store and alerts all
/// call them. A `fn` named `delay_slots`, `recomp_delay_slots` or
/// `gpipe_bubble_fraction` (with or without a prefix such as `nominal_`)
/// anywhere else is a second copy that only a test would hold to the first.
/// A method whose whole body is one call of the theory function (a thin
/// forwarder) is allowed.
const SINGLE_CLOSED_FORM: &[Rule] =
    &[rule(0, Matches("a closed form's fn", closed_form_copy), ALL_SRC)
        .except("crates/theory/src/**")];

/// One convolution data path: the patch matrix (`im2col` → GEMM → `col2im`,
/// with its batch-sized per-thread scratch) was replaced by the blocked
/// passes of crates/tensor/src/conv.rs and lives on only as the test oracle,
/// the dev-only crate crates/conv-oracle. A call to `im2col(`, `col2im(` or
/// `with_conv_scratch(` from library, example, bench or benchmark code, or a
/// manifest naming the oracle crate outside `[dev-dependencies]`, is that
/// path coming back as a second one that only tests hold to the first.
const NO_PATCH_MATRIX: &[Rule] = &[
    rule(0, Matches("a patch-matrix call", patch_matrix_call), ALL_SRC)
        .except("crates/conv-oracle/**"),
    rule(0, Matches("an oracle edge", oracle_edge), "Cargo.toml|{crates/*,pmbench}/Cargo.toml")
        .except("crates/conv-oracle/**")
        .reads(ALL),
];

/// No sleep-polls on the serving or live-stats path. The serving batcher
/// parks until a reader, `resume_batcher` or `shutdown` unparks it, a
/// loopback receive with a timeout blocks on the channel's condition
/// variable, and the stats endpoint blocks in `accept`. A `thread::sleep(`
/// in the serve, comms or telemetry library is a poll loop coming back:
/// every request or scrape pays up to one sleep of latency and every idle
/// thread burns a core. `pm top --watch`'s sleep, in the telemetry
/// binaries, is its refresh interval.
const NO_SLEEP_POLL: &[Rule] =
    &[rule(0, Any("thread::sleep("), "crates/{serve,comms,telemetry}/src/**/*.rs")
        .except("crates/telemetry/src/bin/**")];

/// Inference builds no backward cache. Every layer writes its own
/// `Layer::forward_no_cache` (a default body would build the cache and drop
/// it), and evaluation, serving and the recompute stash hook call it. So
/// library code in crates/{nn,core,serve} never runs a training forward only
/// to discard its cache: no `….forward(…).0` and no `let (y, _) =
/// ….forward(…)`, for any `forward*`, `encode` or `decode` call. An 80-image
/// evaluation through the training forward holds every layer's cache at
/// once, ≈19 MB for the ResNet stand-in. Allowed: `Transformer::{greedy,
/// beam}_decode`, whose encoder and decoder are not a layer chain and have
/// no cache-free pass yet (ROADMAP.md item 10).
const CACHE_FREE_INFERENCE: &[Rule] = &[
    rule(0, Matches("a default body", |s| s.has("fn forward_no_cache(") && s.has_body()), LAYER),
    rule(0, Matches("a dropped training cache", drops_cache), "crates/{nn,core,serve}/src/**/*.rs"),
];

/// Layers write their weight gradients in place. The one backward every
/// layer writes is `Layer::backward_into(params, cache, dy, grads)`, which
/// adds its gradient into a caller-owned slice of the model's gradient;
/// `Layer::backward`, which returns a fresh vector, is the trait's provided
/// wrapper for tests and per-layer timing. A layer that defines `fn
/// backward(` again allocates a gradient-sized vector per call (2.6 MB for a
/// 640×1024 layer) for the chain to copy, and a `Layer::backward` without a
/// body makes every layer do so. Test modules are read too.
const IN_PLACE_GRADS: &[Rule] = &[
    rule(1, Any("fn backward("), LAYER).reads(NOT_COMMENT),
    rule(1, Matches("fn backward( with a body", |s| s.has("fn backward(") && s.has_body()), LAYER)
        .reads(NOT_COMMENT),
    rule(0, Matches("fn backward( in an impl Layer", layer_backward), "crates/nn/src/**/*.rs")
        .reads(NOT_COMMENT),
];

const GUARDS: [(&str, &[Rule]); 10] = [
    ("single_core", SINGLE_CORE),
    ("single_codec", SINGLE_CODEC),
    ("single_executor", SINGLE_EXECUTOR),
    ("single_epoch_loop", SINGLE_EPOCH_LOOP),
    ("single_fold", SINGLE_FOLD),
    ("single_closed_form", SINGLE_CLOSED_FORM),
    ("no_patch_matrix", NO_PATCH_MATRIX),
    ("no_sleep_poll", NO_SLEEP_POLL),
    ("cache_free_inference", CACHE_FREE_INFERENCE),
    ("in_place_grads", IN_PLACE_GRADS),
];

#[test]
fn every_guard_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut paths, mut files, mut failures) = (vec![], vec![], String::new());
    walk(root, "", &mut paths);
    paths.sort();
    let read = |path: &String| GUARDS.iter().any(|(_, rules)| rules.iter().any(|r| r.covers(path)));
    for path in paths.into_iter().filter(|p| p != "tests/architecture.rs" && read(p)) {
        let (lines, open) =
            classify(&String::from_utf8_lossy(&fs::read(root.join(&path)).unwrap()));
        if let (Some(open), true) = (open, path.ends_with(".rs")) {
            failures += &format!("{path}:{}: an impl block whose braces never balance\n", open + 1);
        }
        files.push((path, lines));
    }
    for (guard, rules) in GUARDS {
        for rule in rules {
            let sites = sites(rule, &files);
            if sites.len() != rule.expect {
                let (found, what) = (sites.len(), rule.what());
                failures += &format!("{guard}: {what}: found {found}, expected {}\n", rule.expect);
                failures.extend(sites.iter().map(|site| format!("  {site}\n")));
            }
        }
    }
    assert!(failures.is_empty(), "architecture guards failed:\n{failures}");
}

/// Pushes every file under `root/dir` as a `/`-separated path from `root`.
fn walk(root: &Path, dir: &str, paths: &mut Vec<String>) {
    for entry in fs::read_dir(root.join(dir)).unwrap().map(Result::unwrap) {
        let name = entry.file_name().into_string().unwrap();
        let path = if dir.is_empty() { name.clone() } else { format!("{dir}/{name}") };
        if !entry.file_type().unwrap().is_dir() {
            paths.push(path);
        } else if !["target", "vendor", ".git"].contains(&name.as_str()) {
            walk(root, &path, paths);
        }
    }
}

/// `path:line` of every site `rule` counts.
fn sites(rule: &Rule, files: &[(String, Vec<Line>)]) -> Vec<String> {
    let mut sites = Vec::new();
    for (path, lines) in files.iter().filter(|(path, _)| rule.covers(path)) {
        if let File = rule.hit {
            sites.push(path.clone());
        }
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| rule.reads.contains(&l.kind)) {
            let hit = match rule.hit {
                Any(needles) => needles.split('|').any(|n| line.text.contains(n)),
                Unless(needle, but) => line.text.contains(needle) && !line.text.contains(but),
                Matches(_, accepts) => accepts(&Site { path, lines, i, reads: rule.reads }),
                File => false,
            };
            if hit {
                sites.push(format!("{path}:{}", i + 1));
            }
        }
    }
    sites
}

fn glob_matches(glob: &str, path: &str) -> bool {
    fn parts(glob: &[&str], path: &[&str]) -> bool {
        match (glob.split_first(), path.split_first()) {
            (Some((&"**", rest)), _) => {
                parts(rest, path) || (!path.is_empty() && parts(glob, &path[1..]))
            }
            (Some((g, glob)), Some((p, path))) => component(g, p) && parts(glob, path),
            (g, p) => g.is_none() && p.is_none(),
        }
    }
    // A component holds at most one `*`.
    fn component(glob: &str, name: &str) -> bool {
        glob.split_once('*').map_or(glob == name, |(head, tail)| {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        })
    }
    // `{a,b}` expands before the path is split, so an alternative may hold a `/`.
    if let Some((head, rest)) = glob.split_once('{') {
        let (alternatives, tail) = rest.split_once('}').unwrap();
        return alternatives.split(',').any(|a| glob_matches(&format!("{head}{a}{tail}"), path));
    }
    parts(&glob.split('/').collect::<Vec<_>>(), &path.split('/').collect::<Vec<_>>())
}

/// A line of a file, with the last line at or above it that names a `fn`
/// and the header line of the `impl` block it lies in.
struct Line {
    text: String,
    kind: Kind,
    fn_at: Option<usize>,
    impl_at: Option<usize>,
}

/// The lines of `source`, and the header of an `impl` block open at its end.
fn classify(source: &str) -> (Vec<Line>, Option<usize>) {
    let (mut lines, mut tests, mut fn_at, mut impl_at, mut depth) = (vec![], false, None, None, 0);
    for (i, text) in source.lines().enumerate() {
        tests |= text.starts_with("#[cfg(test)]");
        let kind = match text.trim_start().starts_with("//") {
            true => Kind::Comment,
            false if tests => Kind::Test,
            false => Kind::Code,
        };
        let names_fn = |(k, _): (usize, &str)| {
            (k == 0 || text[..k].ends_with(char::is_whitespace)) && text[k + 3..].starts_with(word)
        };
        if kind != Kind::Comment && text.match_indices("fn ").any(names_fn) {
            fn_at = Some(i);
        }
        let rest = text.trim_start().strip_prefix("impl").unwrap_or("-");
        let opens_impl = rest.starts_with('<') || rest.starts_with(char::is_whitespace);
        if kind != Kind::Comment && impl_at.is_none() && opens_impl {
            (impl_at, depth) = (Some(i), 0);
        }
        lines.push(Line { text: text.to_string(), kind, fn_at, impl_at });
        if kind != Kind::Comment && impl_at.is_some() {
            depth += text.matches('{').count() as i64 - text.matches('}').count() as i64;
            if depth == 0 && text.contains('}') {
                impl_at = None;
            }
        }
    }
    (lines, impl_at)
}

fn word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The length of the run of `text`'s first characters that `keep` accepts.
fn run(text: &str, keep: impl Fn(char) -> bool) -> usize {
    text.find(|c| !keep(c)).unwrap_or(text.len())
}

/// A line a rule reads, in its file.
struct Site<'a> {
    path: &'a str,
    lines: &'a [Line],
    i: usize,
    reads: &'a [Kind],
}

impl Site<'_> {
    fn text(&self) -> &str {
        &self.lines[self.i].text
    }

    fn has(&self, needle: &str) -> bool {
        self.text().contains(needle)
    }

    /// This line and the ones after it that the rule reads.
    fn onward(&self) -> impl Iterator<Item = &Line> {
        self.lines[self.i..].iter().filter(|l| self.reads.contains(&l.kind))
    }

    /// Whether the signature starting here ends in `{` rather than `;`.
    fn has_body(&self) -> bool {
        self.onward().find(|l| l.text.contains(['{', ';'])).is_some_and(|l| l.text.contains('{'))
    }

    /// The name after the last `fn ` on the line that last named a `fn`.
    fn fn_name(&self) -> Option<&str> {
        let text = &self.lines[self.lines[self.i].fn_at?].text;
        let name = &text[text.rfind("fn ")? + 3..];
        Some(&name[..run(name, word)])
    }

    fn impl_header(&self) -> Option<&str> {
        Some(&self.lines[self.lines[self.i].impl_at?].text)
    }
}

fn stray_sleep(s: &Site) -> bool {
    s.has("thread::sleep(")
        && !s.impl_header().is_some_and(|h| h.starts_with("impl StageWork for Sleep "))
}

/// A `const` whose name says frame and a bound (`MAX`, `CAP`, `LIMIT`,
/// `BYTES` or `LEN`).
fn frame_cap(s: &Site) -> bool {
    s.text().match_indices("const ").any(|(k, _)| {
        let rest = &s.text()[k + 6..];
        let name = &rest[..run(rest, |c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')];
        name.contains("FRAME") && "MAX|CAP|LIMIT|BYTES|LEN".split('|').any(|b| name.contains(b))
    })
}

/// A `fn` named for a closed form (or a prefixed copy) whose body is not one
/// line calling the theory function.
fn closed_form_copy(s: &Site) -> bool {
    const FORMS: [&str; 3] = ["delay_slots", "recomp_delay_slots", "gpipe_bubble_fraction"];
    let text = s.text();
    let defines = text.match_indices("fn").any(|(k, _)| {
        let (rest, name_at) = (&text[k + 2..], text[k + 2..].trim_start());
        let name = &name_at[..run(name_at, |c| word(c) && !c.is_ascii_uppercase())];
        !text[..k].ends_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && name_at.len() < rest.len()
            && name_at[name.len()..].trim_start().starts_with(['(', '<'])
            && FORMS.iter().any(|f| name == *f || name.ends_with(&format!("_{f}")))
    });
    let mut body = s.onward().skip_while(|l| !l.text.contains('{')).skip(1);
    let forwards = body
        .next()
        .is_some_and(|l| FORMS.iter().any(|f| l.text.contains(&format!("pipemare_theory::{f}("))));
    defines && !(forwards && body.next().is_some_and(|l| l.text.trim() == "}"))
}

/// `im2col(`, `col2im(` or `with_conv_scratch(` not inside a longer name.
fn patch_matrix_call(s: &Site) -> bool {
    let calls = |call| s.text().match_indices(call).any(|(k, _)| !s.text()[..k].ends_with(word));
    "im2col(|col2im(|with_conv_scratch(".split('|').any(calls)
}

/// A manifest line naming the oracle crate outside `[dev-dependencies]`.
fn oracle_edge(s: &Site) -> bool {
    let section = s.lines[..=s.i].iter().rev().find(|l| l.text.starts_with('['));
    s.has("conv-oracle") && section.is_none_or(|l| l.text != "[dev-dependencies]")
}

/// `….forward*(…)….0` or `let (y, _) = ….forward*(…)`, for any `forward*`,
/// `encode` or `decode` call, outside the allowed decoders.
fn drops_cache(s: &Site) -> bool {
    let text = s.text();
    // Where each `.forward…(`, `.encode(` and `.decode(` starts and ends.
    let calls: Vec<(usize, usize)> = text
        .match_indices('.')
        .filter_map(|(k, _)| {
            let rest = &text[k + 1..];
            let name = match rest.strip_prefix("forward") {
                Some(suffix) => 7 + run(suffix, word),
                None => ["encode(", "decode("].iter().find(|c| rest.starts_with(*c))?.len() - 1,
            };
            rest[name..].starts_with('(').then_some((k, k + name + 2))
        })
        .collect();
    let field0 = calls.first().is_some_and(|&(_, end)| {
        text[end..].match_indices(").0").any(|(k, _)| !text[end + k + 3..].starts_with(word))
    });
    let binds = text.match_indices("let (").any(|(k, _)| {
        let name = run(&text[k + 5..], word);
        let bound = name > 0 && text[k + 5 + name..].starts_with(", _) = ");
        bound && calls.last().is_some_and(|&(start, _)| start >= k + 5 + name + 7)
    });
    let decoder = s.path == "crates/nn/src/transformer.rs"
        && matches!(s.fn_name(), Some("greedy_decode" | "beam_decode"));
    (field0 || binds) && !decoder
}

/// `fn backward(` in an `impl Layer for` block, whose header may have `<…>`
/// generics and a `path::` before `Layer`.
fn layer_backward(s: &Site) -> bool {
    let declares = |(k, _): (usize, &str)| k == 0 || s.text()[..k].ends_with(char::is_whitespace);
    let header = s.impl_header().and_then(|h| h.trim_start().strip_prefix("impl"));
    let Some(mut rest) = header.filter(|_| s.text().match_indices("fn backward(").any(declares))
    else {
        return false;
    };
    if let Some(generics) = rest.strip_prefix('<') {
        rest = generics.split_once('>').map_or("", |(_, after)| after);
    }
    // Past the blank, `(word::)*` and then `Layer for `.
    let path = rest.trim_start();
    let prefix = path.split("Layer for ").next().unwrap();
    let segments = |p: &str| p.split("::").all(|s| !s.is_empty() && s.chars().all(word));
    path.len() < rest.len()
        && path.contains("Layer for ")
        && (prefix.is_empty() || prefix.strip_suffix("::").is_some_and(segments))
}

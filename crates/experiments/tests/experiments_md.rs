//! `EXPERIMENTS.md` is current: the committed file is the quick suite,
//! byte for byte, apart from the wall-clock `Suite runtime` line. Every
//! run is seeded and thread-invisible, so any other difference means a
//! measured number, a verdict or a sentence of the report moved; if that
//! was intended, regenerate the file (`cargo run --release -p
//! ag-experiments -- all`) and commit it with the change.

use ag_experiments::{render_suite, Scale};

#[test]
fn committed_experiments_md_is_the_quick_suite() {
    let committed = include_str!("../../../EXPERIMENTS.md");
    let regenerated = render_suite(Scale::Quick);
    let timeless = |report: &str| -> Vec<String> {
        let lines = report
            .lines()
            .filter(|line| !line.contains("Suite runtime"));
        lines.map(str::to_string).collect()
    };
    let (committed, regenerated) = (timeless(committed), timeless(&regenerated));
    for (i, (old, new)) in committed.iter().zip(&regenerated).enumerate() {
        assert_eq!(
            old,
            new,
            "EXPERIMENTS.md drifted at line {} (runtime line not counted)",
            i + 1
        );
    }
    assert_eq!(
        committed.len(),
        regenerated.len(),
        "EXPERIMENTS.md gained or lost lines"
    );
}

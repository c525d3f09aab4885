//! Panic freedom (DESIGN.md §3d): non-test code in the workspace does
//! not unwrap, expect, panic or assert, except where an
//! `#[expect(lint, reason = "…")]` on the enclosing item or `let` says
//! why. Clippy checks it, and this test is the gate: a plain `cargo test`
//! fails on a new panic site, on an excuse without a reason, and on an
//! excuse that no longer excuses anything.

mod panic_gate;

use panic_gate::{gate, repo};

#[test]
fn workspace_passes_the_panic_gate() {
    let outcome = gate(&repo().join("Cargo.toml"));
    assert!(
        outcome.passed && outcome.findings.is_empty(),
        "the panic gate fails; a site that must panic says why with \
         #[expect(clippy::…, reason = \"…\")] on its item or `let`:\n{:#?}\n{}",
        outcome.findings,
        outcome.stderr
    );
}

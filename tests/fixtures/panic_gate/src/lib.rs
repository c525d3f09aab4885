//! Seeded panic sites: `tests/fixtures.rs` expects the findings it
//! lists on each line it names, and none in `clean.rs`.

pub mod clean;

/// Unwraps both ways.
///
/// # Panics
///
/// Panics on `None` or `Ok`.
pub fn unwraps(o: Option<u8>, r: Result<u8, u8>) -> u8 {
    let a = o.unwrap();
    let b = r.unwrap_err();
    a + b
}

/// Expects both ways.
///
/// # Panics
///
/// Panics on `None` or `Ok`.
pub fn expects(o: Option<u8>, r: Result<u8, u8>) -> u8 {
    let a = o.expect("some");
    let b = r.expect_err("an error");
    a + b
}

/// Panics by macro.
///
/// # Panics
///
/// Panics on 0, 1 and 2 and above 250.
pub fn macros(x: u8) -> u8 {
    match x {
        0 => panic!("zero"),
        1 => unreachable!("one"),
        _ => {}
    }
    assert!(x < 250, "too large");
    assert_eq!(x % 2, 1, "odd");
    x
}

/// Excuses an unwrap it no longer has.
#[expect(clippy::unwrap_used, reason = "a stale excuse: nothing here unwraps")]
pub fn stale(x: u8) -> u8 {
    x.saturating_add(1)
}

/// Excuses its unwrap without saying why.
///
/// # Panics
///
/// Panics on `None`.
#[expect(clippy::unwrap_used)]
pub fn unexplained(o: Option<u8>) -> u8 {
    o.unwrap()
}

// A bare allow: no reason, and not an `expect`.
#[allow(dead_code)]
fn unused() {}

/// Unwraps with no `# Panics` section.
pub fn undocumented(o: Option<u8>) -> u8 {
    o.unwrap() + 1
}

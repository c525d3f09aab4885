//! Nothing here panics any more.
//! panic-ok: this file-wide marker excuses no site

pub fn quiet(x: u8) -> u8 {
    x / 2
}

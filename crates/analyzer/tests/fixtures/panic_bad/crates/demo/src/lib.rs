pub fn first(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn second(x: u8) {
    if x > 250 {
        panic!("too large");
    }
}

pub fn third(x: u8) -> u8 {
    debug_assert!(x < 200, "compiled out of release builds: not flagged");
    assert!(x < 250, "an assert panics like any other macro");
    x
}

pub fn fourth(r: Result<u8, u8>) -> u8 {
    let e = r.unwrap_err();
    r.expect_err("panics like `expect`") + e
}

// panic-ok: this marker excused a site that has since gone
pub fn fifth(x: u8) -> u8 {
    x.saturating_add(1)
}

pub fn sixth(x: Option<u8>) -> u8 {
    x.expect("a marker must say why") // panic-ok:
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_not_flagged() {
        assert_eq!(super::first(Some(1)), 1);
        let v: Option<u8> = Some(2);
        let _ = v.unwrap();
        assert!(super::third(3) == 3);
    }
}

pub fn serve(&self) {
    self.stats.sent(Kind::A);
    self.stats.sent_n(Kind::B, 3);
    let cfg = self.config.parse().expect("config is loaded at boot");
    self.table.merge(cfg);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}

fn main() {
    let port: u16 = std::env::args().nth(1).unwrap_or_default().parse().unwrap();
    println!("{port}");
}

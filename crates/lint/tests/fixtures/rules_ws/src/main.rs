//! A binary target may fail loudly: TL001 and TL002 do not apply.

fn main() {
    let n: u8 = std::env::args().nth(1).unwrap().parse().expect("a number");
    if n == 0 {
        panic!("zero");
    }
}

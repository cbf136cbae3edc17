//! Fixture: panic-free violations in library code (exactly two
//! non-test sites).

pub fn step_one(x: Option<u64>) -> u64 {
    x.unwrap()
}

pub fn step_two(r: Result<u64, String>) -> u64 {
    r.expect("fixture")
}

pub fn fine(x: Option<u64>) -> u64 {
    x.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::step_one(Some(3)), 3);
        let y: Option<u64> = Some(4);
        y.unwrap();
    }
}

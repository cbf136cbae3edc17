//! Fixture: typed panics — an unwind with a custom payload is still a
//! panic path (exactly two non-test sites).

use std::panic::resume_unwind;

pub fn rethrow(payload: Box<dyn std::any::Any + Send>) {
    resume_unwind(payload)
}

pub fn fail_typed(code: u32) {
    std::panic::panic_any(code)
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic]
    fn tests_may_unwind() {
        std::panic::panic_any(7u32);
    }
}

// Fixture for `named-thread`: two unnamed spawns fire, the named builder
// chains and the test module do not.
fn unnamed() {
    let _ = std::thread::spawn(|| work());
    std::thread::scope(|scope| {
        scope.spawn(|| work());
    });
}

fn named(i: usize) -> std::io::Result<()> {
    let handle = std::thread::Builder::new()
        .name(format!("sknn-fixture-{i}"))
        .spawn(move || work())?;
    std::thread::scope(|scope| {
        let _ = std::thread::Builder::new()
            .name("sknn-fixture-scoped".into())
            .spawn_scoped(scope, || work());
    });
    let _ = handle.join();
    Ok(())
}

fn work() {}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_threads_may_be_anonymous() {
        let _ = std::thread::spawn(|| super::work()).join();
    }
}

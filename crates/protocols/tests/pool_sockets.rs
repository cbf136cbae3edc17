//! No socket outlives its pool. A channel session holds four socket fds:
//! the client end of its socketpair, plus the server end and that end's
//! read and write clones. Dropping the pool must close all of them.
//!
//! This is a test binary of its own, so no concurrent test opens or closes
//! sockets while this one reads the process's fd table.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::BigUint;
use sknn_paillier::Keypair;
use sknn_protocols::transport::{Loopback, SessionPool};
use sknn_protocols::{KeyHolder, LocalKeyHolder};
use std::collections::HashSet;

/// The `socket:[inode]` link of every open socket fd of this process, one
/// entry per fd.
fn socket_fds() -> Vec<String> {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with("socket:["))
        .collect()
}

#[test]
fn dropping_a_channel_pool_closes_every_socket_it_opened() {
    let mut rng = StdRng::seed_from_u64(0x50C);
    let (pk, sk) = Keypair::generate(128, &mut rng).split();
    let before: HashSet<String> = socket_fds().into_iter().collect();

    let holders = (0..2)
        .map(|i| LocalKeyHolder::new(sk.clone(), 0x50C0 + i))
        .collect();
    let pool = SessionPool::channel(holders, &Loopback::default()).unwrap();
    for session in pool.sessions() {
        let masked = pk.encrypt_u64(3, &mut rng);
        assert_eq!(
            session.decrypt_masked_batch(&[masked]),
            Ok(vec![BigUint::from_u64(3)])
        );
    }
    let opened: Vec<String> = socket_fds()
        .into_iter()
        .filter(|link| !before.contains(link))
        .collect();
    let inodes: HashSet<&String> = opened.iter().collect();
    assert_eq!(opened.len(), 8, "4 fds per session: {opened:?}");
    assert_eq!(inodes.len(), 4, "2 sockets per session: {opened:?}");

    drop(pool);
    let left: Vec<String> = socket_fds()
        .into_iter()
        .filter(|link| inodes.contains(link))
        .collect();
    assert!(left.is_empty(), "sockets outlived the pool: {left:?}");
}

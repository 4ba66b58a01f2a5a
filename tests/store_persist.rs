//! Persistence integration tests: restart-without-resign, backend
//! proof equivalence, corruption robustness, and chunked replica
//! bootstrap.
//!
//! The tests in this file share one process-global RSA signing
//! counter ([`spnet_crypto::rsa::signing_ops`]), so every test takes
//! `sign_lock()` — publishes sign, and the cold-start test must
//! observe an exactly-zero delta across its load window.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, ProviderPackage, Published};
use spnet_core::prelude::*;
use spnet_core::provider::ServiceProvider;
use spnet_core::snapshot::SNAPSHOT_FILE;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

static SIGN_LOCK: Mutex<()> = Mutex::new(());

fn sign_lock() -> MutexGuard<'static, ()> {
    SIGN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnet-persist-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

fn publish(method: &MethodConfig, seed: u64) -> Published {
    let g = grid_network(9, 9, 1.15, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    DataOwner::publish(&g, method, &SetupConfig::default(), &mut rng)
}

/// The acceptance bar of the snapshot subsystem: a provider
/// cold-started from disk performs **zero** RSA signing operations and
/// serves byte-identical verified answers, on both backends, for all
/// four methods.
#[test]
fn cold_start_signs_nothing_and_serves_byte_equal() {
    let _g = sign_lock();
    for (i, method) in all_methods().iter().enumerate() {
        let p = publish(method, 900 + i as u64);
        let dir = tmpdir(&format!("coldstart-{i}"));
        p.save_snapshot(&dir).unwrap();
        let fresh = ServiceProvider::new(p.package.clone());
        let queries = [(NodeId(0), NodeId(80)), (NodeId(5), NodeId(76))];
        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let before = spnet_crypto::rsa::signing_ops();
            let loaded = ProviderPackage::load_snapshot(&dir, backend).unwrap();
            assert_eq!(
                spnet_crypto::rsa::signing_ops(),
                before,
                "{} cold start must not sign",
                method.name()
            );
            assert_eq!(loaded.public_key, p.public_key);
            let cold = ServiceProvider::new(loaded.package);
            for &(s, t) in &queries {
                let want = spnet_core::wire::encode_batch_answer(&fresh.answer(&[(s, t)]).unwrap());
                let got = spnet_core::wire::encode_batch_answer(&cold.answer(&[(s, t)]).unwrap());
                assert_eq!(got, want, "{} {backend:?} answer bytes", method.name());
            }
            // The original clients' key verifies the cold answers.
            let client = Client::new(p.public_key.clone());
            let (s, t) = queries[0];
            let v = client
                .verify(&[(s, t)], &cold.answer(&[(s, t)]).unwrap())
                .unwrap();
            assert!(v[0] > 0.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The `File` backend leaves tree pages on disk: opening faults only
/// the hot pages, and serving a query faults more in on demand.
#[test]
fn file_backend_faults_pages_lazily() {
    let _g = sign_lock();
    let p = publish(
        &MethodConfig::Full {
            use_floyd_warshall: false,
        },
        930,
    );
    let dir = tmpdir("lazy");
    p.save_snapshot(&dir).unwrap();
    let loaded = ProviderPackage::load_snapshot(&dir, StoreBackend::File).unwrap();
    assert!(loaded.store.is_lazy());
    let after_open = loaded.store.fault_count();
    let provider = ServiceProvider::new(loaded.package);
    provider.answer(&[(NodeId(0), NodeId(80))]).unwrap();
    assert!(
        loaded.store.fault_count() > after_open,
        "a proof must fault tree pages in"
    );

    // The Mem backend is eager: nothing lazy, no fault accounting.
    let eager = ProviderPackage::load_snapshot(&dir, StoreBackend::Mem).unwrap();
    assert!(!eager.store.is_lazy());
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncations at every interesting boundary decode to typed errors —
/// never a panic, never a serving package.
#[test]
fn truncated_snapshots_fail_typed() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 910);
    let dir = tmpdir("truncate");
    let path = p.save_snapshot(&dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for cut in [
        0,
        1,
        7,
        8,
        23,
        24,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for backend in [StoreBackend::Mem, StoreBackend::File] {
            assert!(
                ProviderPackage::load_snapshot(&dir, backend).is_err(),
                "cut at {cut} ({backend:?}) must fail typed"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose owner key has an even modulus — storage checksum
/// recomputed, so only the key decoder can catch it — fails typed as
/// corruption instead of reaching RSA verification.
#[test]
fn even_modulus_owner_key_fails_typed() {
    use spnet_crypto::digest::hash_bytes;

    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 912);
    let dir = tmpdir("even-key");
    let path = p.save_snapshot(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    let key = p.public_key.to_bytes();
    let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).position(|w| w == needle);
    let key_at = find(&bytes, &key).expect("key blob in snapshot");
    let sum_at = find(&bytes, hash_bytes(&key).as_bytes()).expect("key checksum in table");
    // Byte 8 + n_len − 1 of the encoding is the low byte of n.
    let n_len = u32::from_le_bytes(key[4..8].try_into().unwrap()) as usize;
    let mut even = key.clone();
    even[8 + n_len - 1] ^= 0x01;
    bytes[key_at..key_at + key.len()].copy_from_slice(&even);
    bytes[sum_at..sum_at + 32].copy_from_slice(hash_bytes(&even).as_bytes());
    std::fs::write(&path, &bytes).unwrap();

    for backend in [StoreBackend::Mem, StoreBackend::File] {
        match ProviderPackage::load_snapshot(&dir, backend) {
            Err(SnapshotError::Corrupt(_)) => {}
            Err(other) => panic!("want Corrupt, got {other:?}"),
            Ok(_) => panic!("an even-modulus key must not load"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bumped format version is rejected as [`spnet_store::StoreError::UnsupportedVersion`],
/// distinct from corruption, so future formats can negotiate.
#[test]
fn version_bump_fails_typed() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 911);
    let dir = tmpdir("version");
    let path = p.save_snapshot(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1); // header version byte
    std::fs::write(&path, &bytes).unwrap();
    for backend in [StoreBackend::Mem, StoreBackend::File] {
        match ProviderPackage::load_snapshot(&dir, backend) {
            Err(SnapshotError::Store(spnet_store::StoreError::UnsupportedVersion(_))) => {}
            Err(other) => panic!("want UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("bumped version must not load"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica bootstraps from a live provider's chunked snapshot export
/// and serves bit-identical verified answers; tampered or incomplete
/// transfers are rejected before anything is served.
#[test]
fn replica_bootstraps_from_chunked_snapshot() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Hyp { cells: 9 }, 940);
    let dir = tmpdir("chunk-src");
    p.save_snapshot(&dir).unwrap();

    let service = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let frames = service.export_chunks(0, 4096).unwrap();
    assert!(frames.len() > 3, "multi-frame transfer expected");

    let replica_dir = tmpdir("chunk-replica");
    let replica = SpService::builder()
        .snapshot_chunks(&frames, &replica_dir, StoreBackend::File)
        .unwrap()
        .threads(0)
        .build();

    let s1 = service
        .open_session(Client::new(p.public_key.clone()))
        .unwrap();
    let s2 = replica
        .open_session(Client::new(p.public_key.clone()))
        .unwrap();
    let a = s1
        .query_batch(&[(NodeId(0), NodeId(80))])
        .unwrap()
        .remove(0);
    let b = s2
        .query_batch(&[(NodeId(0), NodeId(80))])
        .unwrap()
        .remove(0);
    assert_eq!(a.distance.to_bits(), b.distance.to_bits());

    // A flipped payload byte fails the whole-file checksum at End.
    let mut bad = frames.clone();
    let last = bad[1].len() - 1;
    bad[1][last] ^= 0x10;
    let bad_dir = tmpdir("chunk-bad");
    assert!(SpService::builder()
        .snapshot_chunks(&bad, &bad_dir, StoreBackend::Mem)
        .is_err());

    // A transfer missing its End frame never loads.
    let partial = &frames[..frames.len() - 1];
    let partial_dir = tmpdir("chunk-partial");
    assert!(SpService::builder()
        .snapshot_chunks(partial, &partial_dir, StoreBackend::Mem)
        .is_err());

    // Shards not built from a snapshot have nothing to export.
    let plain = SpService::builder()
        .package(publish(&MethodConfig::Dij, 941).package)
        .build();
    assert!(plain.export_chunks(0, 4096).is_err());
    assert!(service.export_chunks(7, 4096).is_err(), "no such shard");

    for d in [dir, replica_dir, bad_dir, partial_dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// Fixture for the bit-flip fuzz: one pristine DIJ snapshot, its
/// bytes, and the fresh provider's answer bytes for a fixed query.
fn fuzz_fixture() -> &'static (PathBuf, Vec<u8>, Vec<u8>) {
    static FIX: OnceLock<(PathBuf, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let p = publish(&MethodConfig::Dij, 920);
        let dir = tmpdir("fuzz");
        let path = p.save_snapshot(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let fresh = ServiceProvider::new(p.package);
        let want = spnet_core::wire::encode_batch_answer(
            &fresh.answer(&[(NodeId(0), NodeId(80))]).unwrap(),
        );
        (dir, bytes, want)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz: flipping any single bit of the snapshot either fails with
    /// a typed error (at load, or — on the lazy backend — at first
    /// touch while proving) or, when the flip lands in alignment
    /// padding, leaves every served answer byte-identical. It never
    /// panics and never serves a silently wrong proof.
    #[test]
    fn single_bit_flips_fail_typed_or_stay_harmless(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
        backend_pick in 0usize..2,
    ) {
        let _g = sign_lock();
        let (dir, pristine, want) = fuzz_fixture();
        let mut bytes = pristine.clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        let backend = if backend_pick == 1 { StoreBackend::File } else { StoreBackend::Mem };
        if let Ok(loaded) = ProviderPackage::load_snapshot(dir, backend) {
            let provider = ServiceProvider::new(loaded.package);
            match provider.answer(&[(NodeId(0), NodeId(80))]) {
                // Lazy backend: the corrupt page faulted during the
                // proof and surfaced as a typed provider error.
                Err(_) => {}
                Ok(a) => {
                    let got = spnet_core::wire::encode_batch_answer(&a);
                    prop_assert_eq!(&got, want, "flip at byte {} bit {} served different bytes", pos, bit);
                }
            }
        }
        std::fs::write(dir.join(SNAPSHOT_FILE), pristine).unwrap();
    }
}

/// The faulted-page cache is **bounded**: scanning a paged structure
/// far larger than [`PAGE_CACHE_PAGES`] evicts LRU pages instead of
/// accumulating them, so resident pages (faults − evictions) never
/// exceed the configured bound. Uses a POI tree as the paged
/// structure: at 256 entries/page, 140k POIs span ~547 entry pages
/// against a 512-page cache.
#[test]
fn file_backend_page_cache_stays_bounded() {
    use spnet_core::snapshot::PAGE_CACHE_PAGES;
    use spnet_queries::PoiSet;

    let _g = sign_lock();
    let mut rng = StdRng::seed_from_u64(970);
    let keypair = spnet_crypto::rsa::RsaKeyPair::generate(&mut rng, 512);
    let n: u32 = 140_000;
    let pois: Vec<(NodeId, f64)> = (0..n).map(|i| (NodeId(i), i as f64)).collect();
    let set = PoiSet::publish(&keypair, &pois).unwrap();
    let dir = tmpdir("cache-bound");
    set.save(&dir).unwrap();

    let (loaded, store) = PoiSet::load(&dir, StoreBackend::File).unwrap();
    // Full completeness proof touches every entry page plus the digest
    // pages of the Merkle cover — far more than the cache holds.
    let proof = loaded.prove_all().unwrap();
    assert_eq!(proof.entries.len(), n as usize);
    assert!(
        store.evict_count() > 0,
        "a scan over ~547 pages must evict from a 512-page cache"
    );
    // Two paged structures (entry array + digest tree) share the
    // store's counters, each individually bounded.
    let resident = store.fault_count() - store.evict_count();
    assert!(
        resident <= 2 * PAGE_CACHE_PAGES as u64,
        "resident pages {resident} exceed the configured bound"
    );

    // The bounded cache is purely a memory cap: the proof still
    // verifies the complete directory.
    spnet_queries::PoiDirectory::verify(keypair.public_key(), loaded.signed(), &proof).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

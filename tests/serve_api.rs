//! End-to-end coverage of the `hic-serve` job server and its
//! `RunRequest` wire contract:
//!
//! * the canonical cache key round-trips through `parse_key`, including
//!   requests assembled from the environment knobs, which reach only the
//!   runs `RunRequest::from_env` builds;
//! * an identical resubmission is answered from the result cache with
//!   bit-identical statistics;
//! * a watchdog-killed job reports `hang` and the server keeps serving;
//! * a corrupting-fault job fails with its typed error without
//!   disturbing concurrently queued clean jobs;
//! * concurrent submissions from many client threads all complete;
//! * the socket frontend serves the full protocol over a real
//!   `UnixStream`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use hic_apps::Scale;
use hic_runtime::{
    CheckMode, Config, FaultSpec, InterConfig, IntraConfig, ProgramBuilder, RunRequest, Scheduler,
};
use hic_serve::{socket, Json, Server};

fn fft(cfg: IntraConfig) -> RunRequest {
    RunRequest::new("FFT", Config::Intra(cfg), Scale::Test)
}

#[test]
fn cache_keys_round_trip_through_parse_key() {
    // Exercise every optional field at least once.
    let mut reqs = vec![fft(IntraConfig::Base)];
    let mut r = fft(IntraConfig::Hcc);
    r.check = CheckMode::Strict;
    r.fault = Some(FaultSpec::Recoverable { seed: 42 });
    r.watchdog_cycles = Some(1_000_000);
    r.watchdog_wall_ms = Some(30_000);
    reqs.push(r);
    let mut r = RunRequest::new("EP", Config::Inter(InterConfig::AddrL), Scale::Small);
    r.fault = Some(FaultSpec::Corrupting { seed: 7 });
    r.engine = Scheduler::Linear;
    reqs.push(r);

    for req in reqs {
        let key = req.cache_key();
        let back = RunRequest::parse_key(&key).expect("canonical keys parse");
        assert_eq!(back, req, "parse_key must invert cache_key for {key}");
        assert_eq!(back.cache_key(), key);
    }
}

#[test]
fn env_assembled_requests_serialize_like_explicit_ones() {
    // This integration-test binary owns its process environment, and
    // only `RunRequest::from_env` reads the knobs, so setting them here
    // cannot leak into the other tests' runs.
    const KNOBS: [&str; 5] = [
        "HIC_CHECK",
        "HIC_FAULTS",
        "HIC_RECOVER",
        "HIC_ENGINE",
        "HIC_BENCH_BUDGET_MS",
    ];
    std::env::set_var("HIC_CHECK", "report");
    std::env::set_var("HIC_FAULTS", "13");
    std::env::set_var("HIC_ENGINE", "linear");
    std::env::set_var("HIC_BENCH_BUDGET_MS", "125");
    let from_env = RunRequest::from_env("FFT", Config::Intra(IntraConfig::Base), Scale::Test)
        .expect("well-formed knobs");
    std::env::set_var("HIC_RECOVER", "1");
    let recovering = RunRequest::from_env("FFT", Config::Intra(IntraConfig::Base), Scale::Test)
        .expect("well-formed knobs");
    // A hand-built run, made while every knob is set, sees none of them:
    // no sanitizer, no fault plan, and the default engine retiring its
    // L1 hits in the app thread.
    let hand_built = {
        let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::Base));
        let data = p.alloc(64);
        p.run(2, move |ctx| {
            let own = ctx.tid() as u64 * 32;
            for i in 0..32 {
                ctx.write(data, own + i, i as u32);
            }
            for i in 0..32 {
                ctx.read(data, own + i);
            }
        })
    };
    for var in KNOBS {
        std::env::remove_var(var);
    }

    let mut explicit = fft(IntraConfig::Base);
    explicit.check = CheckMode::Report;
    explicit.fault = Some(FaultSpec::Recoverable { seed: 13 });
    explicit.engine = Scheduler::Linear;
    assert_eq!(from_env, explicit);
    // The bench harness's budget knob is not part of the run, so it
    // cannot split identical runs across two cache keys.
    assert_eq!(from_env.cache_key(), explicit.cache_key());

    explicit.fault = Some(FaultSpec::CorruptingRecover { seed: 13 });
    assert_eq!(recovering, explicit);

    assert!(hand_built.result().is_ok());
    assert_eq!(hand_built.diagnostics().mode, CheckMode::Off);
    assert!(hand_built.fault_plan().is_none());
    assert!(
        hand_built.stats().engine.shard_local_ops > 0,
        "{:?}",
        hand_built.stats().engine
    );
}

#[test]
fn resubmission_hits_the_cache_with_bit_identical_stats() {
    let server = Server::start(2, None);
    let (id, cached) = server.submit(fft(IntraConfig::BMI), 0).unwrap();
    assert!(!cached);
    let (first, _) = server.wait(id).unwrap();
    assert!(first.correct, "{}", first.detail);

    let (id2, cached2) = server.submit(fft(IntraConfig::BMI), 0).unwrap();
    assert!(cached2, "identical resubmission must be a cache hit");
    let (second, from_cache) = server.wait(id2).unwrap();
    assert!(from_cache);
    assert!(
        Arc::ptr_eq(&first, &second),
        "cache serves the same outcome"
    );
    assert_eq!(first.cycles, second.cycles);
    assert_eq!(first.traffic, second.traffic);
    assert_eq!(server.stats().cache_hits, 1);
    server.shutdown();
}

#[test]
fn watchdog_killed_jobs_hang_and_the_server_keeps_serving() {
    let server = Server::start(1, None);
    let mut doomed = fft(IntraConfig::Base);
    doomed.watchdog_cycles = Some(10); // no app finishes in 10 cycles
    let (id, cached) = server.submit(doomed, 0).unwrap();
    assert!(!cached);
    let (outcome, _) = server.wait(id).unwrap();
    assert_eq!(outcome.error.as_deref(), Some("hang"));
    assert!(!outcome.correct);

    // Watchdog kills are nondeterministic in principle (the wall-clock
    // variant depends on host load), so they are never cached...
    let (id2, cached2) = {
        let mut doomed = fft(IntraConfig::Base);
        doomed.watchdog_cycles = Some(10);
        server.submit(doomed, 0).unwrap()
    };
    assert!(!cached2, "hangs must not be served from the cache");
    let (outcome2, _) = server.wait(id2).unwrap();
    assert_eq!(outcome2.error.as_deref(), Some("hang"));

    // ...and the worker that delivered them is still alive and serving.
    let (id3, _) = server.submit(fft(IntraConfig::Base), 0).unwrap();
    let (outcome3, _) = server.wait(id3).unwrap();
    assert!(outcome3.correct, "{}", outcome3.detail);
    assert_eq!(outcome3.error, None);
    server.shutdown();
}

#[test]
fn corrupting_faults_fail_typed_without_disturbing_clean_jobs() {
    let server = Server::start(2, None);
    let mut poisoned = RunRequest::new("EP", Config::Inter(InterConfig::Base), Scale::Test);
    poisoned.fault = Some(FaultSpec::Corrupting { seed: 7 });
    let (bad_id, _) = server.submit(poisoned.clone(), 0).unwrap();
    let clean_ids: Vec<_> = IntraConfig::ALL
        .map(|cfg| server.submit(fft(cfg), 0).unwrap().0)
        .to_vec();

    let (bad, _) = server.wait(bad_id).unwrap();
    assert_eq!(bad.error.as_deref(), Some("corrupt_dirty_line"));
    assert!(!bad.correct);
    for id in clean_ids {
        let (outcome, _) = server.wait(id).unwrap();
        assert!(outcome.correct, "{}", outcome.detail);
        assert_eq!(outcome.error, None);
    }

    // The corruption is seeded and deterministic, so the failure itself
    // is a valid cache entry.
    let (_, cached) = server.submit(poisoned, 0).unwrap();
    assert!(cached, "deterministic typed failures are cacheable");
    server.shutdown();
}

#[test]
fn concurrent_submitters_all_complete() {
    let server = Arc::new(Server::start(4, None));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let cfg = IntraConfig::ALL[i % IntraConfig::ALL.len()];
                let (id, _) = server.submit(fft(cfg), i as i64).unwrap();
                let (outcome, _) = server.wait(id).unwrap();
                assert!(outcome.correct, "{}", outcome.detail);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.failed, 0);
    // 8 submissions over 5 distinct keys: the repeats hit the cache
    // unless they raced the first run of their key.
    assert!(stats.cache_hits <= 3);
}

#[test]
fn socket_frontend_serves_the_full_protocol() {
    let path = std::env::temp_dir().join(format!("hic-serve-test-{}.sock", std::process::id()));
    let server = Server::start(2, None);
    let accept_path = path.clone();
    let listener = std::thread::spawn(move || socket::serve(server, &accept_path));

    // The listener may not be bound yet; connecting retries briefly.
    let stream = {
        let mut tries = 0;
        loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) if tries < 100 => {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("connect {}: {e}", path.display()),
            }
        }
    };
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: String| -> Json {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(&resp).unwrap()
    };

    let key = fft(IntraConfig::Base).cache_key();
    let sub = rpc(format!("{{\"op\":\"submit\",\"key\":\"{key}\"}}"));
    assert_eq!(sub.get("ok"), Some(&Json::Bool(true)), "{sub:?}");
    let id = sub.get("id").and_then(Json::as_u64).unwrap();

    let res = rpc(format!("{{\"op\":\"result\",\"id\":{id}}}"));
    let outcome = res.get("result").unwrap();
    assert_eq!(outcome.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(outcome.get("key").and_then(Json::as_str), Some(&*key));

    let sub2 = rpc(format!("{{\"op\":\"submit\",\"key\":\"{key}\"}}"));
    assert_eq!(sub2.get("cached"), Some(&Json::Bool(true)));

    let bad = rpc("{\"op\":\"submit\",\"key\":\"not a key\"}".to_string());
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

    let stats = rpc("{\"op\":\"stats\"}".to_string());
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));

    let bye = rpc("{\"op\":\"shutdown\"}".to_string());
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    listener.join().unwrap().unwrap();
    assert!(!path.exists(), "socket file is removed on shutdown");
}

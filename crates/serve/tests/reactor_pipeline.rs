//! Socket-level tests of the event-driven connection layer: pipelined
//! frames on one connection come back in request order even when the
//! first request is the slowest, and idle connections are closed by the
//! reactor's timeout sweep. A frame nested past the JSON parser's depth
//! limit is refused without taking the daemon down.
#![cfg(unix)]

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use mao_serve::engine::{Engine, EngineConfig};
use mao_serve::json::Json;
use mao_serve::protocol::{read_frame, write_frame, Frame, OptimizeRequest, Request};
use mao_serve::server::{connect_with_retry, serve, Listen};

static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);

fn socket_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mao-reactor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "maod-{}.sock",
        NEXT_SOCKET.fetch_add(1, Ordering::SeqCst)
    ))
}

fn start(config: EngineConfig) -> (Listen, std::thread::JoinHandle<std::io::Result<()>>) {
    let addr = Listen::Unix(socket_path());
    let engine = Engine::new(config);
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(engine, &server_addr));
    (addr, handle)
}

fn send(conn: &mut impl std::io::Write, request: &Request) {
    let payload = request.to_json().to_string();
    write_frame(conn, payload.as_bytes()).expect("frame written");
}

fn recv(conn: &mut impl std::io::Read) -> Json {
    match read_frame(conn, usize::MAX).expect("frame read") {
        Frame::Payload(bytes) => Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap(),
        other => panic!("expected payload frame, got {other:?}"),
    }
}

/// A compute request that holds its shard for `ms` milliseconds.
fn slow_request(ms: u64) -> Request {
    Request::Optimize(OptimizeRequest {
        asm: "nop\n".to_string(),
        passes: format!("PANIC=sleep_ms[{ms}],func[nosuch]"),
        jobs: None,
        timeout_ms: Some(0),
        use_cache: false,
        isa: mao::isa::IsaId::X86_64,
    })
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    let (addr, server) = start(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    });
    let mut conn = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");

    // Three frames written back-to-back before reading anything. The slow
    // compute request goes first; the inline-answerable pings behind it
    // must wait in the reorder buffer rather than overtaking.
    send(&mut conn, &slow_request(100));
    send(&mut conn, &Request::Ping);
    send(&mut conn, &Request::Ping);

    let first = recv(&mut conn);
    assert_eq!(first.get("status").unwrap().as_str(), Some("ok"));
    assert!(first.get("asm").is_some(), "slowest request answers first");
    for _ in 0..2 {
        let pong = recv(&mut conn);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }

    // A few hundred frames in a single write land in one read buffer.
    // Every third names its index in an unknown request type, so the
    // error echoing it pins each answer to its place in the stream.
    let mut burst = Vec::new();
    for i in 0..300 {
        let payload = if i % 3 == 2 {
            format!(r#"{{"type":"probe-{i}"}}"#)
        } else {
            Request::Ping.to_json().to_string()
        };
        write_frame(&mut burst, payload.as_bytes()).expect("frame buffered");
    }
    conn.write_all(&burst).expect("burst written");
    for i in 0..300 {
        let response = recv(&mut conn);
        if i % 3 == 2 {
            let message = response.get("error").unwrap().get("message").unwrap();
            assert_eq!(
                message.as_str(),
                Some(format!("unknown request type `probe-{i}`").as_str()),
                "response {i} out of order"
            );
        } else {
            assert_eq!(
                response.get("pong").and_then(Json::as_bool),
                Some(true),
                "response {i} out of order"
            );
        }
    }

    send(&mut conn, &Request::Shutdown);
    let ack = recv(&mut conn);
    assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
    drop(conn);
    server.join().unwrap().expect("server drains cleanly");
    if let Listen::Unix(path) = &addr {
        assert!(!path.exists(), "socket removed on shutdown");
    }
}

#[test]
fn idle_connections_are_closed_by_the_reactor() {
    let (addr, server) = start(EngineConfig {
        shards: 1,
        idle_timeout_ms: 200,
        ..EngineConfig::default()
    });
    let mut idle = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");

    // A request proves the connection is live, then it goes quiet.
    send(&mut idle, &Request::Ping);
    let pong = recv(&mut idle);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // Well past the idle budget, the server has hung up: the next read
    // sees EOF rather than blocking forever.
    std::thread::sleep(Duration::from_millis(700));
    match read_frame(&mut idle, usize::MAX).expect("read after idle close") {
        Frame::Eof => {}
        other => panic!("expected EOF from idle close, got {other:?}"),
    }

    // A fresh connection still works: the sweep culled one connection,
    // not the listener.
    let mut fresh = connect_with_retry(&addr, Duration::from_secs(5)).expect("reconnect");
    send(&mut fresh, &Request::Shutdown);
    let ack = recv(&mut fresh);
    assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
    drop(fresh);
    server.join().unwrap().expect("server drains cleanly");
}

#[test]
fn deeply_nested_frame_is_a_bad_request_and_the_daemon_lives_on() {
    let (addr, server) = start(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    });
    let mut conn = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");

    // 100,000 open brackets: far below the frame cap, but deep enough to
    // overflow the reactor's stack if the parser recursed without bound.
    write_frame(&mut conn, "[".repeat(100_000).as_bytes()).expect("frame written");
    let response = recv(&mut conn);
    assert_eq!(response.get("status").unwrap().as_str(), Some("error"));
    let error = response.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_request"));

    send(&mut conn, &Request::Ping);
    let pong = recv(&mut conn);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    send(&mut conn, &Request::Shutdown);
    let ack = recv(&mut conn);
    assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
    drop(conn);
    server.join().unwrap().expect("server drains cleanly");
}

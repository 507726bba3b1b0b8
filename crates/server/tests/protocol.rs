//! Wire-protocol robustness: malformed input of every kind must come
//! back as a structured error frame — never a panic, never a hang, and
//! never a silently dropped request.

use llamatune_engine::RunOptions;
use llamatune_runtime::CampaignOptions;
use llamatune_server::wire::{self, read_frame, write_frame, Response};
use llamatune_server::{Server, ServerConfig, ServerHandle, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{ObjectStoreBackend, StoreOptions};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn quick_opts() -> CampaignOptions {
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    CampaignOptions { run_options: Some(run_opts), ..Default::default() }
}

/// Boots a daemon on an ephemeral port over a fresh in-memory backend.
fn start_daemon() -> (ServerHandle, std::thread::JoinHandle<()>, String) {
    let backend = Arc::new(ObjectStoreBackend::default());
    let registry = Arc::new(SessionRegistry::new(
        backend,
        postgres_v9_6(),
        quick_opts(),
        StoreOptions::default(),
    ));
    let cfg = ServerConfig {
        max_frame: 64 * 1024,
        suggest_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", registry, cfg).unwrap();
    let handle = server.handle().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.serve().unwrap());
    (handle, join, addr)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    // Every read in these tests is bounded: a hang is a failure, not a
    // wait.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// One reply with what [`Response`] borrows from its frame copied out.
struct Reply {
    id: Option<u64>,
    result: Result<String, wire::WireError>,
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut frame = Vec::new();
    let body = read_frame(stream, wire::MAX_FRAME, &mut frame).unwrap();
    let resp = Response::decode(body).unwrap();
    Reply { id: resp.id, result: resp.result.map(str::to_string) }
}

fn roundtrip(stream: &mut TcpStream, body: &str) -> Reply {
    write_frame(stream, body).unwrap();
    read_reply(stream)
}

fn expect_err(resp: &Reply, code: &str) {
    let err = resp.result.as_ref().expect_err("expected a structured error");
    assert_eq!(err.code, code, "unexpected error: {err}");
}

#[test]
fn malformed_json_gets_a_structured_error_and_keeps_the_connection() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    // Garbage JSON inside a well-formed frame: structured bad_json,
    // and the *same connection* keeps serving afterwards.
    let resp = roundtrip(&mut stream, "{not json at all");
    assert_eq!(resp.id, None);
    expect_err(&resp, wire::code::BAD_JSON);

    // Valid JSON but a broken envelope (no id): structured bad_request.
    let resp = roundtrip(&mut stream, "{\"method\":\"ping\"}");
    expect_err(&resp, wire::code::BAD_REQUEST);

    // The connection still works.
    let resp = roundtrip(&mut stream, "{\"id\":3,\"method\":\"ping\",\"params\":{}}");
    assert_eq!(resp.id, Some(3));
    assert!(resp.result.is_ok());

    handle.shutdown();
    join.join().unwrap();
}

/// A frame that arrived whole is a frame the daemon can answer and read
/// past, whatever its body holds: bytes that are not UTF-8 are `bad_json`
/// like any other body that is not a JSON document, not a framing fault.
#[test]
fn invalid_utf8_body_is_bad_json_and_keeps_the_connection() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    let body = b"{\"id\":1,\"method\":\"ping\",\"params\":{\"x\":\"\xff\xfe\"}}";
    stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, None);
    expect_err(&resp, wire::code::BAD_JSON);

    let resp = roundtrip(&mut stream, "{\"id\":2,\"method\":\"ping\",\"params\":{}}");
    assert_eq!(resp.id, Some(2));
    assert!(resp.result.is_ok(), "the stream is still in step");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn truncated_frame_is_answered_then_closed() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    // Announce 100 bytes, deliver 10, close the write half.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"0123456789").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, None);
    expect_err(&resp, wire::code::BAD_FRAME);

    // The daemon hangs up after a framing fault — resync is impossible.
    let mut frame = Vec::new();
    let closed = read_frame(&mut stream, wire::MAX_FRAME, &mut frame);
    assert!(matches!(closed, Err(wire::FrameError::Closed)));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_frame_is_rejected_without_reading_the_body() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    // Claim a body far past the daemon's 64 KiB test limit. The daemon
    // must reject on the header alone (it never waits for 1 GiB).
    stream.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
    stream.flush().unwrap();

    let resp = read_reply(&mut stream);
    expect_err(&resp, wire::code::BAD_FRAME);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn unknown_method_and_bad_params_are_structured() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    let resp = roundtrip(&mut stream, "{\"id\":1,\"method\":\"frobnicate\",\"params\":{}}");
    assert_eq!(resp.id, Some(1));
    expect_err(&resp, wire::code::UNKNOWN_METHOD);

    // create_session with empty params: every missing field is a
    // bad_params, echoing the offending id.
    let resp = roundtrip(&mut stream, "{\"id\":2,\"method\":\"create_session\",\"params\":{}}");
    assert_eq!(resp.id, Some(2));
    expect_err(&resp, wire::code::BAD_PARAMS);

    // create_session with an unknown workload/optimizer: bad_params,
    // not a panicking driver thread.
    let body = "{\"id\":3,\"method\":\"create_session\",\"params\":{\
                 \"workload\":\"no_such_workload\",\"adapter\":{\"kind\":\"identity\"},\
                 \"optimizer\":\"smac\",\"seed\":1,\"iterations\":4,\"n_init\":2,\
                 \"batch_size\":1}}";
    let resp = roundtrip(&mut stream, body);
    expect_err(&resp, wire::code::BAD_PARAMS);

    // `gp_bo_sparse` was a kind once: a client still naming it is told
    // so, on a connection that stays usable.
    for optimizer in ["no_such_optimizer", "gp_bo_sparse"] {
        let body = format!(
            "{{\"id\":4,\"method\":\"create_session\",\"params\":{{\
             \"workload\":\"ycsb_b\",\"adapter\":{{\"kind\":\"identity\"}},\
             \"optimizer\":\"{optimizer}\",\"seed\":1,\"iterations\":4,\
             \"n_init\":2,\"batch_size\":1}}}}"
        );
        let resp = roundtrip(&mut stream, &body);
        expect_err(&resp, wire::code::BAD_PARAMS);
        let message = &resp.result.as_ref().unwrap_err().message;
        assert!(message.contains(optimizer), "the error names {optimizer}: {message}");

        let resp = roundtrip(&mut stream, "{\"id\":5,\"method\":\"ping\",\"params\":{}}");
        assert!(resp.result.is_ok(), "the same connection answers after a refused {optimizer}");
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Every size a `create_session` carries is bounded where it is decoded:
/// an absurd one is a `bad_params` naming the field, on a connection —
/// and a daemon — that lives on. Unbounded, the first case below reached
/// the initial design's `vec![vec![0.0; dims]; n_init]` on the session
/// thread and the allocation failure aborted the whole process.
#[test]
fn oversized_create_session_fields_are_refused_and_the_connection_survives() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    let create = |sizes: &str, adapter: &str| {
        format!(
            "{{\"id\":1,\"method\":\"create_session\",\"params\":{{\"workload\":\"ycsb_b\",\
             \"adapter\":{adapter},\"optimizer\":\"random\",\"seed\":1,{sizes}}}}}"
        )
    };
    let identity = "{\"kind\":\"identity\"}";
    let llamatune = |target_dim: u64, bucket_count: &str| {
        format!(
            "{{\"kind\":\"llamatune\",\"target_dim\":{target_dim},\"projection\":\"hesbo\",\
             \"special_value_bias\":0.2,\"bucket_count\":{bucket_count}}}"
        )
    };
    let sane = "\"iterations\":4,\"n_init\":2,\"batch_size\":1";
    let cases = [
        (
            "iterations",
            create(
                "\"iterations\":1000000000000,\"n_init\":1000000000000,\"batch_size\":1",
                identity,
            ),
        ),
        ("n_init", create("\"iterations\":4,\"n_init\":100001,\"batch_size\":1", identity)),
        ("batch_size", create("\"iterations\":4,\"n_init\":2,\"batch_size\":1025", identity)),
        ("batch_size", create("\"iterations\":4,\"n_init\":2,\"batch_size\":0", identity)),
        ("target_dim", create(sane, &llamatune(wire::MAX_TARGET_DIM + 1, "null"))),
        ("target_dim", create(sane, &llamatune(0, "null"))),
        ("bucket_count", create(sane, &llamatune(16, "1"))),
    ];
    for (field, body) in cases {
        let resp = roundtrip(&mut stream, &body);
        expect_err(&resp, wire::code::BAD_PARAMS);
        let message = &resp.result.as_ref().unwrap_err().message;
        assert!(message.contains(field), "the error names {field}: {message}");

        let resp = roundtrip(&mut stream, "{\"id\":2,\"method\":\"ping\",\"params\":{}}");
        assert!(resp.result.is_ok(), "the same connection answers after a refused {field}");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn unknown_session_queries_fail_structured() {
    let (handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    let resp = roundtrip(
        &mut stream,
        "{\"id\":1,\"method\":\"suggest_batch\",\"params\":{\"session\":\"nope\"}}",
    );
    expect_err(&resp, wire::code::UNKNOWN_SESSION);

    let resp = roundtrip(
        &mut stream,
        "{\"id\":2,\"method\":\"report\",\"params\":{\"session\":\"nope\",\"round\":0,\
         \"results\":[]}}",
    );
    expect_err(&resp, wire::code::UNKNOWN_SESSION);

    let resp = roundtrip(
        &mut stream,
        "{\"id\":3,\"method\":\"session_status\",\"params\":{\"session\":\"nope\"}}",
    );
    expect_err(&resp, wire::code::UNKNOWN_SESSION);

    let resp = roundtrip(
        &mut stream,
        "{\"id\":4,\"method\":\"export_history\",\"params\":{\"session\":\"nope\"}}",
    );
    expect_err(&resp, wire::code::UNKNOWN_SESSION);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_request_is_acked_and_stops_the_daemon() {
    let (_handle, join, addr) = start_daemon();
    let mut stream = connect(&addr);

    let resp = roundtrip(&mut stream, "{\"id\":1,\"method\":\"shutdown\",\"params\":{}}");
    assert!(resp.result.is_ok(), "shutdown is acked before the daemon stops");
    join.join().unwrap();
}

//! `serve::http::read_request` over a loopback socket, for every way a
//! client can cut a valid request: split in two writes with a pause
//! between them it reads back the same request, cut short and shut it
//! ends in `Closed` or `Malformed`, and a `Content-Length` that is no
//! `usize` or passes the cap ends in `Malformed` or `BodyTooLarge`.
//! No case may panic.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use alloc_locality::JobSpec;
use serve::http::{read_request, RecvError, Request};

/// The body cap every case reads under.
const MAX_BODY: usize = 1024;

/// A valid `POST /jobs` request with a job spec as its body.
fn post_jobs() -> Vec<u8> {
    let body = serde_json::to_string(&JobSpec::cell("espresso", "BSD", 0.002)).unwrap();
    let head = format!(
        "POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    [head.into_bytes(), body.into_bytes()].concat()
}

/// Reads one request from a client that `send` drives on its own thread.
fn read_one(send: impl FnOnce(TcpStream) + Send + 'static) -> Result<Request, RecvError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        send(stream);
    });
    let (mut stream, _) = listener.accept().unwrap();
    let read = read_request(&mut stream, MAX_BODY, Instant::now() + Duration::from_secs(10));
    client.join().expect("the client thread");
    read
}

fn same_request(a: &Request, b: &Request) -> bool {
    (&a.method, &a.path, &a.headers, &a.body) == (&b.method, &b.path, &b.headers, &b.body)
}

#[test]
fn every_two_way_split_reads_back_the_same_request() {
    let request = post_jobs();
    let whole = {
        let bytes = request.clone();
        read_one(move |mut s| s.write_all(&bytes).unwrap()).expect("the whole request reads")
    };
    assert_eq!((whole.method.as_str(), whole.path.as_str()), ("POST", "/jobs"));
    assert!(!whole.body.is_empty() && request.ends_with(&whole.body), "{whole:?}");
    for at in 1..request.len() {
        let bytes = request.clone();
        let read = read_one(move |mut s| {
            s.write_all(&bytes[..at]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            s.write_all(&bytes[at..]).unwrap();
        });
        match read {
            Ok(split) => assert!(same_request(&split, &whole), "split at {at}: {split:?}"),
            Err(e) => panic!("split at {at}: {e}"),
        }
    }
}

#[test]
fn every_prefix_then_a_shutdown_is_closed_or_malformed() {
    let request = post_jobs();
    for len in 0..request.len() {
        let bytes = request.clone();
        let read = read_one(move |mut s| {
            s.write_all(&bytes[..len]).unwrap();
            s.shutdown(Shutdown::Write).unwrap();
        });
        assert!(
            matches!(read, Err(RecvError::Closed | RecvError::Malformed(_))),
            "prefix of {len} bytes: {read:?}"
        );
    }
}

#[test]
fn a_content_length_no_usize_holds_or_past_the_cap_is_refused() {
    let over = (MAX_BODY + 1).to_string();
    for length in ["-1", "1e3", "18446744073709551616", &over] {
        let head =
            format!("POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: {length}\r\n\r\n");
        // The client's writes may fail once the reader gives up; only the
        // reader's verdict matters.
        let read = read_one(move |mut s| {
            let _ = s.write_all(head.as_bytes());
            let _ = s.write_all(b"{}");
        });
        assert!(
            matches!(read, Err(RecvError::Malformed(_) | RecvError::BodyTooLarge { .. })),
            "Content-Length {length}: {read:?}"
        );
    }
}

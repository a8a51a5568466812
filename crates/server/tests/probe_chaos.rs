//! The event loop's cache probe under a panic: buffered engine requests
//! are parsed and looked up on the loop thread itself, so a panic there
//! must answer 500 and leave the loop serving every connection.
//!
//! Runs only with `--features chaos`, which compiles the `PanicInProbe`
//! injection site in.
#![cfg(feature = "chaos")]

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{count_request, fetch_metrics, roundtrip};
use coursenav_registrar::brandeis_cs;
use coursenav_server::faults::{FaultPlan, FaultSite};
use coursenav_server::{Server, ServerConfig};

#[test]
fn a_panicking_probe_answers_500_and_the_loop_keeps_serving() {
    let plan = Arc::new(FaultPlan::new(29).with(FaultSite::PanicInProbe, 1000));
    let server = Server::start(
        ServerConfig {
            threads: 1,
            faults: Arc::clone(&plan),
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let json = count_request().to_json().unwrap();

    // A probed request and a routed one pipelined on one keep-alive
    // connection: the first answers 500, the connection survives it, and
    // the second is served normally.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!(
            "POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{json}\
             GET /v1/healthz HTTP/1.1\r\nhost: a\r\nconnection: close\r\n\r\n",
            json.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 500"), "{text}");
    let second = text
        .find("HTTP/1.1 200")
        .expect("the pipelined healthz answers");
    assert!(text[second..].contains("{\"status\":\"ok\"}"), "{text}");

    // Fresh connections are still accepted and probed.
    let resp = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("a response");
    assert_eq!(resp.status, 500, "{}", resp.text());
    assert_eq!(plan.arrivals(FaultSite::PanicInProbe), 2);
    let metrics = fetch_metrics(addr);
    assert_eq!(metrics["server-errors"].as_u64(), Some(2), "{metrics:?}");
    server.shutdown();
}

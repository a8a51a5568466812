//! What-if serving against the tenant's transposition-table registry:
//! an applied what-if answers from the path DAG and never reads a memo
//! table, so it must not register one either. Each registered table is a
//! slot in a bounded LRU registry, and a table created for nothing
//! evicts one that explorations are still warming.

mod common;

use common::{count_request, fetch_metrics, roundtrip};
use coursenav_registrar::brandeis_cs;
use coursenav_server::{Server, ServerConfig};

#[test]
fn applied_whatifs_leave_the_memo_registry_untouched() {
    let server = Server::start(ServerConfig::default(), brandeis_cs()).expect("start server");
    let addr = server.local_addr();
    let base = count_request().to_json().unwrap();
    let ask = |delta: &str| {
        let body = format!("{{\"base\":{base},\"delta\":{delta}}}");
        let resp = roundtrip(addr, "POST", "/v1/whatif", Some(&body)).expect("a what-if answer");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-cache"), Some("miss"), "{delta}");
    };
    // The base question builds the tenant's path DAG.
    ask("{}");
    let before = fetch_metrics(addr);

    let deltas = [
        r#"{"avoid":["COSI 12B"]}"#,
        r#"{"avoid":["COSI 21A"]}"#,
        r#"{"avoid":["COSI 12B","COSI 21A"]}"#,
        r#"{"max-semester-workload":12.0}"#,
        r#"{"avoid":["COSI 29A"],"max-semester-workload":15.0}"#,
        r#"{"force":["COSI 21A"]}"#,
    ];
    for delta in deltas {
        ask(delta);
    }

    let after = fetch_metrics(addr);
    assert_eq!(
        after["whatif-applied"].as_u64().unwrap() - before["whatif-applied"].as_u64().unwrap(),
        deltas.len() as u64,
        "every delta is answered by apply"
    );
    for field in ["tables", "tables-dropped"] {
        assert_eq!(
            after["memo"][field], before["memo"][field],
            "memo {field}: {:?}",
            after["memo"]
        );
    }
    server.shutdown();
}

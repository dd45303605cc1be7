//! A create operation forwards to the row its own INSERT minted. Clients
//! create rows concurrently over real HTTP, and every OK page must render
//! the client's own new row, never a row another client created at the
//! same moment. The schedule (reads between creates, yields before each
//! request) is drawn from a seed; override it with `RELSTORE_STRESS_SEED`
//! to explore other interleavings.

use std::sync::{Arc, Barrier};
use std::thread;

use webml_ratio::httpd::{client, ServerConfig};
use webml_ratio::mvc::RuntimeOptions;
use webml_ratio::webml::{Audience, Condition, HypertextModel, LinkEnd, OperationKind};
use webml_ratio::webratio::Application;

const CLIENTS: u64 = 4;
const CREATES_PER_CLIENT: usize = 100;

/// `Submit` creates a submission and forwards to a page keyed on its oid.
fn submissions_app() -> Application {
    use webml_ratio::er::{AttrType, Attribute, ErModel};
    let mut er = ErModel::new();
    let submission = er
        .add_entity(
            "Submission",
            vec![Attribute::new("title", AttrType::String).required()],
        )
        .unwrap();
    let mut ht = HypertextModel::new();
    let sv = ht.add_site_view("Desk", Audience::default());
    let home = ht.add_page(sv, None, "Submissions");
    ht.set_home(sv, home);
    ht.add_index_unit(home, "All submissions", submission);
    let submitted = ht.add_page(sv, None, "Submitted");
    let data = ht.add_data_unit(submitted, "Submitted data", submission);
    ht.add_condition(
        data,
        Condition::KeyEq {
            param: "oid".into(),
        },
    );
    let create = ht.add_operation(
        "Submit",
        OperationKind::Create { entity: submission },
        vec!["title".into()],
    );
    ht.link_ok(create, LinkEnd::Page(submitted));
    ht.link_ko(create, LinkEnd::Page(home));
    Application::new("desk", er, ht)
}

#[test]
fn seeded_concurrent_create_forward() {
    let seed: u64 = std::env::var("RELSTORE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC1D2_2003);
    let d = submissions_app().deploy(RuntimeOptions::default()).unwrap();
    let server = d
        .serve_with(0, CLIENTS as usize, ServerConfig::default())
        .unwrap();
    let addr = server.addr();
    let op_url = d.generated.descriptors.operations[0].url.clone();
    let home = d.home_url("desk").unwrap();

    let start = Arc::new(Barrier::new(CLIENTS as usize));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (op_url, home, start) = (op_url.clone(), home.clone(), Arc::clone(&start));
            thread::spawn(move || {
                // xorshift64*, independently seeded per client
                let mut state = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c + 1));
                let mut rng = move || {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                let mut conn = client::Connection::open(addr).unwrap();
                let mut mismatches = Vec::new();
                start.wait();
                for i in 0..CREATES_PER_CLIENT {
                    if rng() % 4 == 0 {
                        assert_eq!(conn.get(&home).unwrap().status, 200);
                    }
                    for _ in 0..rng() % 64 {
                        thread::yield_now();
                    }
                    let own = format!("sub-c{c}-n{i}-end");
                    let resp = conn.post_form(&op_url, &[("title", &own)]).unwrap();
                    let body = String::from_utf8_lossy(&resp.body);
                    assert_eq!(resp.status, 200, "{body}");
                    assert!(body.contains("<title>Submitted</title>"), "KO: {body}");
                    if !body.contains(&own) {
                        mismatches.push(own);
                    }
                }
                mismatches
            })
        })
        .collect();
    let mismatches: Vec<String> = clients
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    server.stop();
    assert!(
        mismatches.is_empty(),
        "seed {seed}: {} of {} creates forwarded to another row: {mismatches:?}",
        mismatches.len(),
        CLIENTS as usize * CREATES_PER_CLIENT
    );
    assert_eq!(
        d.db.table_len("submission").unwrap(),
        CLIENTS as usize * CREATES_PER_CLIENT
    );
}

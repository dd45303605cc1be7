//! Canonical example applications used by examples, tests, and benches.

use crate::app::Application;
use er::{AttrType, Attribute, Cardinality, ErModel};
use webml::{
    Audience, Condition, Field, HierarchyLevel, HypertextModel, LayoutCategory, LinkEnd, LinkParam,
    OperationKind,
};

/// A minimal bookstore: one entity, one site view with a list page and a
/// detail page, plus a create operation. The quickstart example.
pub fn bookstore() -> Application {
    let mut er = ErModel::new();
    let book = er
        .add_entity(
            "Book",
            vec![
                Attribute::new("title", AttrType::String).required(),
                Attribute::new("price", AttrType::Float),
            ],
        )
        .unwrap();

    let mut ht = HypertextModel::new();
    let sv = ht.add_site_view("Store", Audience::default());
    let list = ht.add_page(sv, None, "Books");
    let detail = ht.add_page(sv, None, "Book Detail");
    ht.set_home(sv, list);
    ht.set_landmark(list);

    let index = ht.add_index_unit(list, "All books", book);
    ht.add_sort(index, "title", true);
    // §6: tag the list as cached; CreateBook invalidates it automatically
    ht.set_cache(index, webml::CacheSpec::model_driven());
    let data = ht.add_data_unit(detail, "Book data", book);
    ht.add_condition(
        data,
        Condition::KeyEq {
            param: "oid".into(),
        },
    );
    ht.link_contextual(
        LinkEnd::Unit(index),
        LinkEnd::Unit(data),
        "open",
        vec![LinkParam::oid("oid")],
    );

    let entry = ht.add_entry_unit(
        list,
        "New book",
        vec![
            Field::new("title", AttrType::String).required(),
            Field::new("price", AttrType::Float),
        ],
    );
    let create = ht.add_operation(
        "CreateBook",
        OperationKind::Create { entity: book },
        vec!["title".into(), "price".into()],
    );
    ht.link_contextual(
        LinkEnd::Unit(entry),
        LinkEnd::Operation(create),
        "Add book",
        vec![
            LinkParam::field("title", "title"),
            LinkParam::field("price", "price"),
        ],
    );
    ht.link_ok(create, LinkEnd::Page(list));
    ht.link_ko(create, LinkEnd::Page(list));

    Application::new("bookstore", er, ht)
}

/// The paper's Fig. 1/2: the ACM Digital Library TODS volume page — a data
/// unit transporting its oid into a hierarchical Issues&Papers index, an
/// entry unit searching papers by keyword, and a paper-details page.
pub fn acm_library() -> Application {
    let mut er = ErModel::new();
    let volume = er
        .add_entity(
            "Volume",
            vec![
                Attribute::new("title", AttrType::String).required(),
                Attribute::new("year", AttrType::Integer),
            ],
        )
        .unwrap();
    let issue = er
        .add_entity(
            "Issue",
            vec![Attribute::new("number", AttrType::Integer).required()],
        )
        .unwrap();
    let paper = er
        .add_entity(
            "Paper",
            vec![
                Attribute::new("title", AttrType::String).required(),
                Attribute::new("pages", AttrType::String),
            ],
        )
        .unwrap();
    er.add_relationship(
        "VolumeIssue",
        volume,
        issue,
        "VolumeToIssue",
        "IssueToVolume",
        Cardinality::ONE_ONE,
        Cardinality::ZERO_MANY,
    )
    .unwrap();
    er.add_relationship(
        "IssuePaper",
        issue,
        paper,
        "IssueToPaper",
        "PaperToIssue",
        Cardinality::ONE_ONE,
        Cardinality::ZERO_MANY,
    )
    .unwrap();

    let mut ht = HypertextModel::new();
    let sv = ht.add_site_view("ACM DL", Audience::default());
    let volumes = ht.add_page(sv, None, "Volumes");
    let volume_page = ht.add_page(sv, None, "Volume Page");
    let paper_page = ht.add_page(sv, None, "Paper Details");
    let results = ht.add_page(sv, None, "Search Results");
    ht.set_home(sv, volumes);
    ht.set_landmark(volumes);
    ht.set_layout(volume_page, LayoutCategory::TwoColumns);

    // Volumes index page
    let volumes_idx = ht.add_index_unit(volumes, "TODS volumes", volume);
    ht.add_sort(volumes_idx, "year", false);

    // Fig. 1: Volume Page
    let volume_data = ht.add_data_unit(volume_page, "Volume data", volume);
    ht.add_condition(
        volume_data,
        Condition::KeyEq {
            param: "volume".into(),
        },
    );
    let hier = ht.add_hierarchical_index(
        volume_page,
        "Issues&Papers",
        vec![
            HierarchyLevel {
                entity: issue,
                role: "VolumeToIssue".into(),
                display_attributes: vec!["number".into()],
                sort: vec![webml::SortSpec {
                    attribute: "number".into(),
                    ascending: true,
                }],
            },
            HierarchyLevel {
                entity: paper,
                role: "IssueToPaper".into(),
                display_attributes: vec!["title".into()],
                sort: vec![],
            },
        ],
    );
    let entry = ht.add_entry_unit(
        volume_page,
        "Enter keyword",
        vec![Field::new("keyword", AttrType::String).required()],
    );

    // Paper details + search results
    let paper_data = ht.add_data_unit(paper_page, "Paper data", paper);
    ht.add_condition(
        paper_data,
        Condition::KeyEq {
            param: "paper".into(),
        },
    );
    let results_idx = ht.add_index_unit(results, "Matching papers", paper);
    ht.add_condition(
        results_idx,
        Condition::AttributeLike {
            attribute: "title".into(),
            param: "kw".into(),
        },
    );

    // links
    ht.link_contextual(
        LinkEnd::Unit(volumes_idx),
        LinkEnd::Unit(volume_data),
        "open volume",
        vec![LinkParam::oid("volume")],
    );
    ht.link_transport(volume_data, hier, vec![LinkParam::oid("volume")]);
    ht.link_contextual(
        LinkEnd::Unit(hier),
        LinkEnd::Unit(paper_data),
        "To Paper details page",
        vec![LinkParam::oid("paper")],
    );
    ht.link_contextual(
        LinkEnd::Unit(entry),
        LinkEnd::Unit(results_idx),
        "To SearchResults page",
        vec![LinkParam::field("kw", "keyword")],
    );
    ht.link_contextual(
        LinkEnd::Unit(results_idx),
        LinkEnd::Unit(paper_data),
        "open paper",
        vec![LinkParam::oid("paper")],
    );

    Application::new("acm_dl", er, ht)
}

/// Seed the ACM DL database with TODS-like content.
pub fn seed_acm(db: &relstore::Database, volumes: usize, issues_per: usize, papers_per: usize) {
    for v in 0..volumes {
        let volume_oid = db
            .execute(
                "INSERT INTO volume (title, year) VALUES (:t, :y)",
                &relstore::Params::new()
                    .bind("t", format!("TODS Volume {}", 27 - v as i64))
                    .bind("y", 2002 - v as i64),
            )
            .expect("seed volume")
            .keys()[0];
        for i in 0..issues_per {
            let issue_oid = db
                .execute(
                    "INSERT INTO issue (number, volume_oid) VALUES (:n, :v)",
                    &relstore::Params::new()
                        .bind("n", (i + 1) as i64)
                        .bind("v", volume_oid),
                )
                .expect("seed issue")
                .keys()[0];
            for p in 0..papers_per {
                db.execute(
                    "INSERT INTO paper (title, pages, issue_oid) VALUES (:t, :pg, :i)",
                    &relstore::Params::new()
                        .bind("t", format!("Paper {volume_oid}.{}.{}", i + 1, p + 1))
                        .bind("pg", format!("{}-{}", p * 20 + 1, p * 20 + 19))
                        .bind("i", issue_oid),
                )
                .unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc::{RuntimeOptions, WebRequest};

    #[test]
    fn fixtures_validate_cleanly() {
        for app in [bookstore(), acm_library()] {
            let errors: Vec<_> = app
                .validate()
                .into_iter()
                .filter(|i| i.severity == webml::Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", app.name);
        }
    }

    #[test]
    fn acm_volume_page_matches_figure_1() {
        let app = acm_library();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        seed_acm(&d.db, 2, 2, 2);
        // Fig. 2: the volume page shows volume details, the nested
        // issues/papers hierarchy, and the keyword form
        let resp = d.handle(&WebRequest::get("/acm_dl/volume_page").with_param("volume", "1"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("TODS Volume 27"));
        assert!(resp.body.contains("Issues&amp;Papers"));
        assert!(resp.body.contains("Paper 1.1.1"));
        assert!(resp.body.contains("Enter keyword"));
        assert!(resp.body.contains("/acm_dl/paper_details?paper="));
    }

    #[test]
    fn acm_search_flow_works() {
        let app = acm_library();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        seed_acm(&d.db, 1, 1, 3);
        let resp = d.handle(&WebRequest::get("/acm_dl/search_results").with_param("kw", "%1.1.2%"));
        assert!(resp.body.contains("Paper 1.1.2"));
        assert!(!resp.body.contains("Paper 1.1.3"));
    }

    #[test]
    fn bookstore_create_operation_flow() {
        let app = bookstore();
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        let op_url = &d.generated.descriptors.operations[0].url;
        let resp = d.handle(
            &WebRequest::get(op_url)
                .with_param("title", "Design Patterns")
                .with_param("price", "45.5"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("Design Patterns"));
        assert_eq!(d.db.table_len("book").unwrap(), 1);
    }
}

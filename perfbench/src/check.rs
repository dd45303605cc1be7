//! The output checker: every response the generator receives is judged
//! here, and a wrong one is classified by reason instead of aborting the
//! run.

/// Why a response was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// Connection error or a malformed response.
    Io,
    /// Refused by admission control (`503`).
    Shed,
    /// Any other status than the one expected.
    Status,
    /// `304 Not Modified` although the client sent no validator.
    Unexpected304,
    /// `200` without the requested row's marker.
    MissingMarker,
    /// The client's own earlier write is missing from its next read.
    StaleRead,
    /// An operation forwarded to its KO page.
    KoForward,
    /// A create forwarded to another client's new row: the known
    /// `SELECT MAX(oid)` defect of the create operation.
    WrongRowForward,
}

impl Reason {
    pub fn name(self) -> &'static str {
        match self {
            Reason::Io => "io",
            Reason::Shed => "shed",
            Reason::Status => "status",
            Reason::Unexpected304 => "unexpected_304",
            Reason::MissingMarker => "missing_marker",
            Reason::StaleRead => "stale_read",
            Reason::KoForward => "ko_forward",
            Reason::WrongRowForward => "wrong_row_forward",
        }
    }

    /// Failures the benchmark attributes to a known, documented defect of
    /// the program. They count in `failed` but do not make the run
    /// incorrect; every other reason does.
    pub fn known_defect(self) -> bool {
        self == Reason::WrongRowForward
    }
}

fn contains(hay: &[u8], needle: &str) -> bool {
    let n = needle.as_bytes();
    !n.is_empty() && hay.windows(n.len()).any(|w| w == n)
}

/// `>value<`: a value rendered as a whole table cell or list item.
pub fn cell(value: &str) -> String {
    format!(">{value}<")
}

/// `<title>name</title>`: the page a response rendered.
pub fn title(page: &str) -> String {
    format!("<title>{page}</title>")
}

/// A page GET.
pub struct ReadCheck<'a> {
    pub validator_sent: bool,
    /// `<title>` of the requested page.
    pub title: &'a str,
    /// Text the page must contain (the requested row's marker).
    pub marker: &'a str,
    /// The client's own latest write to this row, when it made one:
    /// `(unique value, whether the cached copy it revalidates already
    /// shows that write)`.
    pub own_write: Option<(&'a str, bool)>,
}

pub fn check_read(status: u16, body: &[u8], c: &ReadCheck<'_>) -> Result<(), Reason> {
    match status {
        304 if !c.validator_sent => Err(Reason::Unexpected304),
        304 => match c.own_write {
            Some((_, false)) => Err(Reason::StaleRead),
            _ => Ok(()),
        },
        200 => {
            if !contains(body, c.title) || !contains(body, c.marker) {
                return Err(Reason::MissingMarker);
            }
            match c.own_write {
                Some((value, _)) if !contains(body, value) => Err(Reason::StaleRead),
                _ => Ok(()),
            }
        }
        503 => Err(Reason::Shed),
        _ => Err(Reason::Status),
    }
}

/// A modify operation and the page it forwards to.
pub struct EditCheck<'a> {
    /// `<title>` of the OK forward page.
    pub forward: &'a str,
    /// The new value, when the forward page lists the edited row.
    pub shows: Option<&'a str>,
}

pub fn check_edit(status: u16, body: &[u8], c: &EditCheck<'_>) -> Result<(), Reason> {
    match status {
        200 if !contains(body, c.forward) => Err(Reason::KoForward),
        200 => match c.shows {
            Some(v) if !contains(body, v) => Err(Reason::StaleRead),
            _ => Ok(()),
        },
        503 => Err(Reason::Shed),
        _ => Err(Reason::Status),
    }
}

/// A create operation whose forward page is keyed on the new row.
pub struct SubmitCheck<'a> {
    /// `<title>` of the OK forward page.
    pub forward: &'a str,
    /// This client's unique value for the new row. Unique values end in
    /// a letter, so none is a prefix of another.
    pub own: &'a str,
    /// Prefix every submission's unique value starts with.
    pub prefix: &'a str,
}

pub fn check_submit(status: u16, body: &[u8], c: &SubmitCheck<'_>) -> Result<(), Reason> {
    match status {
        200 if !contains(body, c.forward) => Err(Reason::KoForward),
        200 if contains(body, c.own) => Ok(()),
        200 if contains(body, &format!(">{}", c.prefix)) => Err(Reason::WrongRowForward),
        200 => Err(Reason::MissingMarker),
        503 => Err(Reason::Shed),
        _ => Err(Reason::Status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUBMITTED: &str = "<title>Submitted Paper</title>";

    fn page(title_text: &str, cells: &[&str]) -> Vec<u8> {
        let mut b = format!("<html><head>{}</head><table>", title(title_text));
        for c in cells {
            b.push_str(&format!("<td class=\"value\">{c}</td>"));
        }
        b.push_str("</table></html>");
        b.into_bytes()
    }

    #[test]
    fn flags_a_planted_wrong_row_forward() {
        let c = SubmitCheck {
            forward: SUBMITTED,
            own: "sub7c0n12z",
            prefix: "sub7c",
        };
        let mine = page("Submitted Paper", &["sub7c0n12z", "1-2"]);
        assert_eq!(check_submit(200, &mine, &c), Ok(()));
        let theirs = page("Submitted Paper", &["sub7c1n40z", "1-2"]);
        assert_eq!(check_submit(200, &theirs, &c), Err(Reason::WrongRowForward));
        assert!(Reason::WrongRowForward.known_defect());
        let ko = page("Paper Details", &[]);
        assert_eq!(check_submit(200, &ko, &c), Err(Reason::KoForward));
        let blank = page("Submitted Paper", &[]);
        assert_eq!(check_submit(200, &blank, &c), Err(Reason::MissingMarker));
        assert!(!Reason::MissingMarker.known_defect());
    }

    #[test]
    fn flags_a_planted_stale_read() {
        let fresh = page("Paper Details", &["Paper 1.1.1", "e7c0n3z"]);
        let stale = page("Paper Details", &["Paper 1.1.1", "1-19"]);
        let marker = cell("Paper 1.1.1");
        let page_title = title("Paper Details");
        let after_write = |cached_shows_it| ReadCheck {
            validator_sent: true,
            title: &page_title,
            marker: &marker,
            own_write: Some(("e7c0n3z", cached_shows_it)),
        };
        assert_eq!(check_read(200, &fresh, &after_write(false)), Ok(()));
        assert_eq!(
            check_read(200, &stale, &after_write(false)),
            Err(Reason::StaleRead)
        );
        // revalidating a copy from before the write must not yield 304
        assert_eq!(
            check_read(304, &[], &after_write(false)),
            Err(Reason::StaleRead)
        );
        assert_eq!(check_read(304, &[], &after_write(true)), Ok(()));
        assert!(!Reason::StaleRead.known_defect());
    }

    #[test]
    fn judges_status_marker_and_validators() {
        let body = page("Volume Page", &["TODS Volume 27"]);
        let marker = cell("TODS Volume 27");
        let page_title = title("Volume Page");
        let plain = ReadCheck {
            validator_sent: false,
            title: &page_title,
            marker: &marker,
            own_write: None,
        };
        assert_eq!(check_read(200, &body, &plain), Ok(()));
        assert_eq!(check_read(304, &[], &plain), Err(Reason::Unexpected304));
        assert_eq!(check_read(500, &body, &plain), Err(Reason::Status));
        assert_eq!(check_read(503, &[], &plain), Err(Reason::Shed));
        let other = cell("TODS Volume 2");
        let wrong = ReadCheck {
            marker: &other,
            ..plain
        };
        assert_eq!(check_read(200, &body, &wrong), Err(Reason::MissingMarker));
    }

    #[test]
    fn edit_forward_must_show_the_new_value() {
        let c = EditCheck {
            forward: "<title>Page0_2</title>",
            shows: Some("m1n2z"),
        };
        assert_eq!(check_edit(200, &page("Page0_2", &["m1n2z"]), &c), Ok(()));
        assert_eq!(
            check_edit(200, &page("Page0_2", &["x"]), &c),
            Err(Reason::StaleRead)
        );
        assert_eq!(
            check_edit(200, &page("Page0_3", &["m1n2z"]), &c),
            Err(Reason::KoForward)
        );
    }

    #[test]
    fn flags_an_edit_that_forwarded_to_its_ko_page() {
        // EditPaper forwards to Volumes on success and to Paper Details
        // when the modify fails or touches no row
        let c = EditCheck {
            forward: "<title>Volumes</title>",
            shows: None,
        };
        assert_eq!(check_edit(200, &page("Volumes", &["TODS"]), &c), Ok(()));
        let ko = page("Paper Details", &["Paper 1.1.1"]);
        assert_eq!(check_edit(200, &ko, &c), Err(Reason::KoForward));
        assert!(!Reason::KoForward.known_defect());
    }
}

//! The generated part of `EXPERIMENTS.md`: one marked block per
//! experiment holding that experiment's table verbatim, so the numbers the
//! prose around it quotes can be checked against pinned output.
//!
//! ````text
//! <!-- exp:E9 -->
//! ```text
//! E9: operator trust via evidence audits
//! ...
//! ```
//! <!-- /exp:E9 -->
//! ````
//!
//! `gen_golden` rewrites the blocks from the runs it just pinned;
//! `tests/metrics_catalogue.rs` fails when a committed block differs from
//! its golden's table.

/// `md` with the body of every `<!-- exp:ID -->` … `<!-- /exp:ID -->`
/// block replaced by `table_of(ID)` in a `text` fence. Everything outside
/// the markers is kept byte for byte. Panics on a block whose id
/// `table_of` does not know or whose closing marker is missing.
pub fn with_fresh_blocks<'t>(md: &str, table_of: impl Fn(&str) -> Option<&'t str>) -> String {
    let mut out = String::with_capacity(md.len());
    let mut lines = md.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(id) = line.strip_prefix("<!-- exp:").and_then(|l| l.strip_suffix(" -->")) else {
            continue;
        };
        let table = table_of(id).unwrap_or_else(|| panic!("block for unknown experiment {id}"));
        let close = format!("<!-- /exp:{id} -->");
        assert!(lines.any(|l| l == close), "block {id} is never closed");
        out.push_str(&format!("```text\n{}\n```\n{close}\n", table.trim_end()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::with_fresh_blocks;

    #[test]
    fn blocks_are_replaced_and_prose_is_kept() {
        let md = "# t\n<!-- exp:E1 -->\nstale\n<!-- /exp:E1 -->\nprose 42\n";
        let fresh = with_fresh_blocks(md, |id| (id == "E1").then_some("E1: table\nrow\n"));
        assert_eq!(
            fresh,
            "# t\n<!-- exp:E1 -->\n```text\nE1: table\nrow\n```\n<!-- /exp:E1 -->\nprose 42\n"
        );
        // A fresh document is a fixed point.
        assert_eq!(with_fresh_blocks(&fresh, |_| Some("E1: table\nrow\n")), fresh);
    }

    #[test]
    #[should_panic(expected = "unknown experiment E99")]
    fn a_block_for_an_unknown_id_is_refused() {
        with_fresh_blocks("<!-- exp:E99 -->\n<!-- /exp:E99 -->\n", |_| None);
    }
}

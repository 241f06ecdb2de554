//! Diagnostics: ordering and text/JSON rendering.

use oraclesize_runtime::Json;

/// One finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID (`D001`, …).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Sorts diagnostics into report order: path, then line, then rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}

/// `path:line: RULE: message`, one finding per line, plus a summary line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            d.path, d.line, d.rule, d.message
        ));
    }
    if diags.is_empty() {
        out.push_str("lint: clean\n");
    } else {
        out.push_str(&format!("lint: {} finding(s)\n", diags.len()));
    }
    out
}

/// A deterministic JSON document: `{"findings": […], "count": N}` with
/// findings already in report order.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let findings: Vec<Json> = diags
        .iter()
        .map(|d| {
            Json::obj()
                .field("rule", d.rule)
                .field("path", d.path.as_str())
                .field("line", d.line as u64)
                .field("message", d.message.as_str())
        })
        .collect();
    Json::obj()
        .field("findings", findings)
        .field("count", diags.len())
        .render()
}

/// Renders diagnostics as a SARIF 2.1.0 log (one run, one tool driver),
/// so CI can upload the findings and annotate PRs inline. The document is
/// rendered through `runtime::Json` and is deterministic: rules appear in
/// registry order, results in report order, and every result carries a
/// `ruleIndex` into the driver's rule table.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let rules: Vec<Json> = crate::rules::RULES
        .iter()
        .map(|r| {
            Json::obj()
                .field("id", r.id)
                .field("shortDescription", Json::obj().field("text", r.summary))
                .field("defaultConfiguration", Json::obj().field("level", "error"))
        })
        .collect();
    let results: Vec<Json> = diags
        .iter()
        .map(|d| {
            let rule_index = crate::rules::RULES
                .iter()
                .position(|r| r.id == d.rule)
                .unwrap_or(0);
            Json::obj()
                .field("ruleId", d.rule)
                .field("ruleIndex", rule_index as u64)
                .field("level", "error")
                .field("message", Json::obj().field("text", d.message.as_str()))
                .field(
                    "locations",
                    vec![Json::obj().field(
                        "physicalLocation",
                        Json::obj()
                            .field(
                                "artifactLocation",
                                Json::obj()
                                    .field("uri", d.path.as_str())
                                    .field("uriBaseId", "SRCROOT"),
                            )
                            .field("region", Json::obj().field("startLine", u64::from(d.line))),
                    )],
                )
        })
        .collect();
    let driver = Json::obj()
        .field("name", "oraclesize-lint")
        .field("informationUri", "https://example.org/oraclesize")
        .field("rules", rules);
    Json::obj()
        .field(
            "$schema",
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        )
        .field("version", "2.1.0")
        .field(
            "runs",
            vec![Json::obj()
                .field("tool", Json::obj().field("driver", driver))
                .field("results", results)
                .field("columnKind", "utf16CodeUnits")],
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn sort_is_path_then_line_then_rule() {
        let mut v = vec![
            d("P001", "b.rs", 1),
            d("D002", "a.rs", 9),
            d("D001", "a.rs", 9),
            d("D001", "a.rs", 2),
        ];
        sort(&mut v);
        let order: Vec<(&str, u32, &str)> = v
            .iter()
            .map(|x| (x.path.as_str(), x.line, x.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "D001"),
                ("a.rs", 9, "D001"),
                ("a.rs", 9, "D002"),
                ("b.rs", 1, "P001")
            ]
        );
    }

    #[test]
    fn sarif_output_is_valid_json_with_rule_metadata() {
        let v = vec![d("D001", "a.rs", 2), d("O001", "b.rs", 7)];
        let s = render_sarif(&v);
        assert!(oraclesize_runtime::json::parse(&s).is_some());
        assert_eq!(s, render_sarif(&v), "must be deterministic");
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"D001\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("\"name\": \"oraclesize-lint\""));
        // Empty runs still render a complete, parseable log.
        let empty = render_sarif(&[]);
        assert!(oraclesize_runtime::json::parse(&empty).is_some());
        assert!(empty.contains("\"results\": []"));
    }

    #[test]
    fn json_output_parses_and_is_deterministic() {
        let v = vec![d("D001", "a.rs", 2), d("D003", "b.rs", 7)];
        let first = render_json(&v);
        assert!(oraclesize_runtime::json::parse(&first).is_some());
        assert_eq!(first, render_json(&v));
        assert!(first.contains("\"count\": 2"));
    }
}

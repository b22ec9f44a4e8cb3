//! The query sets the workloads replay: the paper's Fig. 5 and Fig. 10
//! queries, and the line-protocol service corpus with its Fig. 10
//! predicate templates.

/// Fig. 5 (full axis names), with the metric label of each row.
pub const FIG5: [(&str, &str); 4] = [
    ("fig5_q1", "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id"),
    (
        "fig5_q2",
        "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
    ),
    ("fig5_q3", "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id"),
    ("fig5_q4", "/child::xdoc/child::*/parent::*/descendant::*/attribute::id"),
];

/// Fig. 10, rows in table order, with the metric label of each row.
pub const FIG10: [(&str, &str); 13] = [
    ("fig10_r01", "/dblp/article/title"),
    ("fig10_r02", "/dblp/*/title"),
    ("fig10_r03", "/dblp/article[position() = 3]/title"),
    ("fig10_r04", "/dblp/article[position() < 100]/title"),
    ("fig10_r05", "/dblp/article[position() = last()]/title"),
    ("fig10_r06", "/dblp/article[position()=last()-10]/title"),
    ("fig10_r07", "/dblp/article/title | /dblp/inproceedings/title"),
    ("fig10_r08", "/dblp/article[count(author)=4]/@key"),
    ("fig10_r09", "/dblp/article[year='1991']/@key"),
    ("fig10_r10", "/dblp/inproceedings[year='1991']/@key"),
    ("fig10_r11", "/dblp/*[author='Guido Moerkotte']/@key"),
    ("fig10_r12", "/dblp/inproceedings[@key='conf/er/LockemannM91']/title"),
    (
        "fig10_r13",
        "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
    ),
];

/// Compile-heavy, cheap-to-execute reads (the plan cache's best case),
/// the same corpus the repository's throughput experiment uses.
pub const SERVICE_CORPUS: [&str; 12] = [
    "/dblp/article/title | /dblp/inproceedings/title | /dblp/article/year | /dblp/inproceedings/year",
    "/dblp/article[position()=1]/title | /dblp/article[position()=last()]/title",
    "count(/dblp/article/author) + count(/dblp/inproceedings/author) + count(/dblp/article/title)",
    "/dblp/*[author and year]/title",
    "/dblp/article[count(author)=2]/@key",
    "string(/dblp/article[1]/title)",
    "/dblp/article[year='1991' or year='1992' or year='1993']/@key",
    "/dblp/inproceedings[position() < 5]/title",
    "/dblp/child::*/child::title/parent::*/child::author",
    "boolean(/dblp/article) and boolean(/dblp/inproceedings)",
    "/dblp/article[last()]/preceding-sibling::article[1]/title",
    "/dblp/inproceedings[author][title][year]/@key | /dblp/article[author][title][year]/@key \
     | /dblp/inproceedings[author][year]/title | /dblp/article[author][year]/title \
     | /dblp/inproceedings[title]/year | /dblp/article[title]/year",
];

/// Fig. 10 predicate templates; `{}` takes a literal drawn from the
/// document's own values of the named kind.
pub const TEMPLATES: [(&str, Literal); 5] = [
    ("/dblp/article[year='{}']/@key", Literal::Year),
    ("/dblp/inproceedings[year='{}']/@key", Literal::Year),
    ("/dblp/*[author='{}']/@key", Literal::Author),
    ("/dblp/inproceedings[author='{}'][position()=last()]/title", Literal::Author),
    ("/dblp/*[@key='{}']/title", Literal::Key),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Literal {
    Year,
    Author,
    Key,
}

/// The values of one literal kind that occur in a generated DBLP text,
/// deduplicated, in first-occurrence order.
pub fn literals(xml: &str, kind: Literal) -> Vec<String> {
    let (open, close) = match kind {
        Literal::Year => ("<year>", "</year>"),
        Literal::Author => ("<author>", "</author>"),
        Literal::Key => (" key=\"", "\""),
    };
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut rest = xml;
    while let Some(i) = rest.find(open) {
        rest = &rest[i + open.len()..];
        let Some(j) = rest.find(close) else { break };
        let v = &rest[..j];
        if !v.contains('\'') && seen.insert(v.to_owned()) {
            out.push(v.to_owned());
        }
        rest = &rest[j..];
    }
    out
}

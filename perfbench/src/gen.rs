//! Seeded XML text generators. The benchmark hands the program only the
//! text these produce, so the same seed always yields the same inputs.
//!
//! The DBLP generator follows the shape of the paper's §6.2.2 substitute:
//! a `dblp` root with `article`/`inproceedings`/`phdthesis`/`www`
//! records, each with a `key` attribute and `author`/`title`/`year`
//! children. "Guido Moerkotte" and the key `conf/er/LockemannM91` are
//! planted so that every Fig. 10 query selects something. The tree
//! generator is the paper's §6.2.1 breadth-first fill with consecutive
//! `id` attributes; the seed only picks element names, which the Fig. 5
//! queries (`*` tests) never look at.

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// True with probability `num/den`.
    pub fn ratio(&mut self, num: u64, den: u64) -> bool {
        self.range(0, den) < num
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

const FIRST: [&str; 12] = [
    "Guido",
    "Sven",
    "Carl-Christian",
    "Matthias",
    "Anna",
    "Boris",
    "Clara",
    "David",
    "Elena",
    "Frank",
    "Grete",
    "Henrik",
];
const LAST: [&str; 12] = [
    "Moerkotte",
    "Helmer",
    "Kanne",
    "Brantner",
    "Schmidt",
    "Keller",
    "Lang",
    "Maier",
    "Neumann",
    "Olteanu",
    "Pichler",
    "Quass",
];
const TITLE_WORDS: [&str; 16] = [
    "algebraic",
    "evaluation",
    "of",
    "XPath",
    "queries",
    "in",
    "native",
    "XML",
    "databases",
    "optimization",
    "holistic",
    "joins",
    "pattern",
    "matching",
    "storage",
    "systems",
];
const VENUES: [&str; 6] = ["vldb", "sigmod", "icde", "edbt", "er", "wise"];
const JOURNALS: [&str; 4] = ["tods", "vldbj", "sigmodrecord", "debu"];

/// A synthetic DBLP document of `records` publication records.
pub fn dblp_xml(records: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut x = String::with_capacity(records * 280);
    x.push_str("<dblp id=\"dblp-root\">\n");
    for i in 0..records {
        let roll = rng.range(0, 100);
        let (elem, key) = if i == records / 2 {
            ("inproceedings", "conf/er/LockemannM91".to_owned())
        } else if roll < 40 {
            ("article", format!("journals/{}/entry{i}", rng.pick(&JOURNALS)))
        } else if roll < 90 {
            ("inproceedings", format!("conf/{}/entry{i}", rng.pick(&VENUES)))
        } else if roll < 95 {
            ("phdthesis", format!("phd/entry{i}"))
        } else {
            ("www", format!("www/entry{i}"))
        };
        x.push_str(&format!("<{elem} key=\"{key}\" id=\"rec{i}\">"));
        for _ in 0..rng.range(1, 6) {
            let person = if rng.ratio(1, 40) {
                "Guido Moerkotte".to_owned()
            } else {
                format!("{} {}", rng.pick(&FIRST), rng.pick(&LAST))
            };
            x.push_str(&format!("<author>{person}</author>"));
        }
        let words: Vec<&str> = (0..rng.range(4, 9)).map(|_| *rng.pick(&TITLE_WORDS)).collect();
        x.push_str(&format!("<title>{}.</title>", words.join(" ")));
        x.push_str(&format!("<year>{}</year>", rng.range(1980, 2005)));
        if rng.ratio(7, 10) {
            let start = rng.range(1, 801);
            x.push_str(&format!("<pages>{start}-{}</pages>", start + rng.range(5, 20)));
        }
        if rng.ratio(1, 2) {
            x.push_str(&format!("<ee>db/{key}.html</ee>"));
        }
        x.push_str(&format!("</{elem}>\n"));
    }
    x.push_str("</dblp>\n");
    x
}

/// A breadth-first-filled tree of at most `max_elements` elements with
/// the given fanout and depth limit, root `xdoc`, `id` numbered in
/// breadth-first order.
pub fn tree_xml(max_elements: usize, fanout: usize, max_depth: usize, seed: u64) -> String {
    let mut levels = vec![1usize];
    let mut total = 1;
    while levels.len() <= max_depth && total < max_elements {
        let next = (levels[levels.len() - 1] * fanout).min(max_elements - total);
        levels.push(next);
        total += next;
    }
    let mut base = vec![0usize; levels.len()];
    for d in 1..levels.len() {
        base[d] = base[d - 1] + levels[d - 1];
    }
    let mut tree = TreeGen {
        levels,
        base,
        next: vec![0; max_depth + 2],
        fanout,
        rng: Rng::new(seed),
        out: String::with_capacity(max_elements * 24),
    };
    tree.emit(0);
    tree.out
}

struct TreeGen {
    levels: Vec<usize>,
    base: Vec<usize>,
    next: Vec<usize>,
    fanout: usize,
    rng: Rng,
    out: String,
}

impl TreeGen {
    fn emit(&mut self, depth: usize) {
        let index = self.next[depth];
        self.next[depth] += 1;
        let id = self.base[depth] + index;
        let name = if depth == 0 {
            "xdoc"
        } else {
            *self.rng.pick(&["a", "b", "c", "d", "e"])
        };
        self.out.push_str(&format!("<{name} id=\"{id}\">"));
        if depth + 1 < self.levels.len() {
            // Breadth-first ownership: parent `index` gets the children
            // whose level cursor falls into its fanout window.
            while self.next[depth + 1] < self.levels[depth + 1]
                && self.next[depth + 1] / self.fanout == index
            {
                self.emit(depth + 1);
            }
        }
        self.out.push_str(&format!("</{name}>"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text() {
        assert_eq!(dblp_xml(50, 3), dblp_xml(50, 3));
        assert_ne!(dblp_xml(50, 3), dblp_xml(50, 4));
        assert_eq!(tree_xml(100, 6, 5, 1), tree_xml(100, 6, 5, 1));
    }

    #[test]
    fn tree_respects_element_cap() {
        let xml = tree_xml(2000, 6, 5, 9);
        assert_eq!(xml.matches(" id=\"").count(), 2000);
        assert!(xml.contains("id=\"1999\""));
    }

    #[test]
    fn dblp_plants_fig10_landmarks() {
        let xml = dblp_xml(400, 1);
        assert!(xml.contains("key=\"conf/er/LockemannM91\""));
        assert!(xml.contains("<author>Guido Moerkotte</author>"));
        assert!(xml.contains("<year>1991</year>"));
    }
}

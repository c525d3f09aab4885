//! Tokenization of metadata values for the inverted index.

use std::ops::ControlFlow;

/// Stopwords excluded from keyword indexing. Small and era-appropriate;
/// disable with [`tokenize_with`]'s `keep_stopwords`.
pub const STOPWORDS: &[&str] =
    &["a", "an", "and", "are", "as", "at", "be", "by", "for", "in", "is", "it", "of", "on",
      "or", "the", "to", "with"];

/// Length of the longest stopword: no longer token needs looking up.
const MAX_STOPWORD_LEN: usize = {
    let (mut max, mut i) = (0, 0);
    while i < STOPWORDS.len() {
        if STOPWORDS[i].len() > max {
            max = STOPWORDS[i].len();
        }
        i += 1;
    }
    max
};

/// Is the lowercase `token` a stopword?
fn is_stopword(token: &str) -> bool {
    token.len() <= MAX_STOPWORD_LEN && STOPWORDS.contains(&token)
}

/// Splits `text` into lowercase alphanumeric tokens, dropping stopwords.
///
/// ```
/// assert_eq!(
///     up2p_store::tokenize("The Observer pattern, by GoF!"),
///     vec!["observer", "pattern", "gof"]
/// );
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    tokenize_with(text, false)
}

/// Tokenizes with explicit stopword control.
pub fn tokenize_with(text: &str, keep_stopwords: bool) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .filter(|t| keep_stopwords || !STOPWORDS.contains(&t.as_str()))
        .collect()
}

thread_local! {
    static TOKEN_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of tokenization passes (one per field value fed through the
/// index's token visitor) performed *on this thread* since it started.
///
/// This is the observability hook the persistence tests use to prove the
/// durable recovery path never re-tokenizes: sample before and after a
/// load and assert the delta is zero. Thread-local so parallel test
/// binaries cannot interfere with each other's counts.
pub fn token_passes() -> u64 {
    TOKEN_PASSES.with(|c| c.get())
}

/// Visits each indexable token of `text` (same token stream as
/// [`tokenize`], stopwords dropped) without allocating a `String` per
/// token: already-lowercase ASCII tokens are passed through as slices of
/// `text`, and only mixed-case / non-ASCII tokens are lowercased into a
/// single reused buffer. This is the indexing/removal hot path, and what
/// the net layer's routing digests enumerate a record's keywords with.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    TOKEN_PASSES.with(|c| c.set(c.get() + 1));
    let _ = try_each_token(text, |t| {
        f(t);
        ControlFlow::Continue(())
    });
}

/// Is `word` one of the tokens [`for_each_token`] visits in `text`?
/// Stops at the first match. It indexes nothing, so it is not a
/// tokenization pass and [`token_passes`] does not count it: this is the
/// keyword test of a linear scan ([`crate::Query::matches_fields`]).
pub(crate) fn has_token(text: &str, word: &str) -> bool {
    try_each_token(text, |t| {
        if t == word {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_break()
}

/// The token stream of [`for_each_token`], uncounted, for as long as `f`
/// continues.
fn try_each_token(text: &str, mut f: impl FnMut(&str) -> ControlFlow<()>) -> ControlFlow<()> {
    for raw in text.split(|c: char| !c.is_alphanumeric()) {
        if raw.is_empty() {
            continue;
        }
        if raw.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()) {
            if !is_stopword(raw) {
                f(raw)?;
            }
        } else {
            // same lowercasing as `tokenize` (str::to_lowercase, which
            // handles e.g. final sigma) — rare path, one allocation
            let lowered = raw.to_lowercase();
            if !is_stopword(&lowered) {
                f(&lowered)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Normalizes a value for exact-match indexing (lowercased, whitespace
/// collapsed).
///
/// One pass into one `String`: ASCII words are lowercased a byte at a
/// time, any other word by `str::to_lowercase`. Word by word is the same
/// as lowercasing the joined text, because no whitespace character is
/// case-ignorable: the final-sigma context of a `Σ` never crosses a space.
pub fn normalize(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for word in value.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        if word.is_ascii() {
            let start = out.len();
            out.push_str(word);
            out[start..].make_ascii_lowercase();
        } else {
            out.push_str(&word.to_lowercase());
        }
    }
    out
}

/// `true` when `normalize(s) == s`, checked without allocating. Lets the
/// comparison hot paths skip re-normalizing values that are already in
/// canonical form (everything the index stores, every compiled pattern).
pub fn is_normalized(s: &str) -> bool {
    if s.is_ascii() {
        // what the char path below rejects, a byte at a time: of ASCII
        // only `A-Z` lowercase to something else, and `char::is_whitespace`
        // takes `\t`..=`\r` (`\x0B` among them) besides ' '
        let b = s.as_bytes();
        return !b.iter().any(|c| c.is_ascii_uppercase() || matches!(c, b'\t'..=b'\r'))
            && b.first() != Some(&b' ')
            && b.last() != Some(&b' ')
            && !b.windows(2).any(|pair| pair == b"  ");
    }
    let mut prev_space = true; // rejects a leading space and double spaces
    for c in s.chars() {
        if c == ' ' {
            if prev_space {
                return false;
            }
            prev_space = true;
        } else if c.is_whitespace() || !c.to_lowercase().eq(std::iter::once(c)) {
            return false;
        } else {
            prev_space = false;
        }
    }
    s.is_empty() || !prev_space // rejects a trailing space
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        assert_eq!(tokenize("Abstract-Factory (GoF)"), vec!["abstract", "factory", "gof"]);
    }

    #[test]
    fn drops_stopwords_by_default() {
        assert_eq!(tokenize("the cat and the hat"), vec!["cat", "hat"]);
        assert_eq!(
            tokenize_with("the cat", true),
            vec!["the", "cat"]
        );
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(tokenize("track 7 of 12"), vec!["track", "7", "12"]);
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("... --- !!!").is_empty());
    }

    #[test]
    fn normalize_collapses_space_and_case() {
        assert_eq!(normalize("  Abstract   Factory "), "abstract factory");
    }

    #[test]
    fn unicode_tokens_survive() {
        assert_eq!(tokenize("Queensrÿche déjà-vu"), vec!["queensrÿche", "déjà", "vu"]);
    }

    #[test]
    fn for_each_token_agrees_with_tokenize() {
        for text in [
            "The Observer pattern, by GoF!",
            "Abstract-Factory (GoF)",
            "track 7 of 12",
            "Queensrÿche déjà-vu",
            "ΟΔΟΣ uphill",
            "With a Withering look, are they within?",
            "",
            "... --- !!!",
        ] {
            let mut via_visitor = Vec::new();
            for_each_token(text, |t| via_visitor.push(t.to_string()));
            assert_eq!(via_visitor, tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn token_passes_counts_visitor_runs() {
        let before = token_passes();
        for_each_token("one pass", |_| {});
        for_each_token("two", |_| {});
        assert_eq!(token_passes() - before, 2);
        // normalization is not a tokenization pass
        let before = token_passes();
        let _ = normalize("Not Counted");
        assert_eq!(token_passes(), before);
    }

    /// Upper and lower case on both paths, every whitespace character
    /// `is_normalized` treats apart from ' ' (`\x0B` is the one
    /// `u8::is_ascii_whitespace` misses), and letters whose lowercase is
    /// longer, titlecase or another character.
    const ALPHABET: [char; 15] =
        ['a', 'q', 'z', 'A', 'Q', 'Z', ' ', '\t', '\x0B', '\x0C', '\r', 'é', 'É', 'ǅ', 'İ'];

    /// `normalize` as first written, kept as the reference for the
    /// one-pass form: every exact-match key in the index and the WAL is
    /// its output.
    fn normalize_oracle(value: &str) -> String {
        value.split_whitespace().collect::<Vec<_>>().join(" ").to_lowercase()
    }

    /// Beside [`ALPHABET`]: both sigmas (`Σ` lowercases to `ς` only at a
    /// word's end), a case-ignorable combining mark the final-sigma rule
    /// looks through, a non-ASCII space, and runs of mixed whitespace.
    const NORMALIZE_EXTRA: [&str; 6] = ["Σ", "ς", "\u{301}", "\u{A0}", "   ", " \t\n "];

    proptest! {
        // short strings, many of them: a disagreement takes one or two
        // characters, `"\x0B"` alone among them
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn is_normalized_agrees_with_normalize(
            picks in proptest::collection::vec(0..ALPHABET.len(), 0..8),
        ) {
            let s: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
            prop_assert_eq!(is_normalized(&s), normalize(&s) == s, "{:?}", s);
        }

        #[test]
        fn normalize_matches_collect_join_lowercase(
            picks in proptest::collection::vec(0..ALPHABET.len() + NORMALIZE_EXTRA.len(), 0..12),
        ) {
            let mut s = String::new();
            for i in picks {
                match ALPHABET.get(i) {
                    Some(&c) => s.push(c),
                    None => s.push_str(NORMALIZE_EXTRA[i - ALPHABET.len()]),
                }
            }
            prop_assert_eq!(normalize(&s), normalize_oracle(&s), "{:?}", s);
        }
    }

    proptest! {
        /// The scan's keyword test against the tokenizer it replaced:
        /// `word` drawn from `text`'s own tokens, from its raw pieces
        /// (mixed case, stopwords, the empty string), or from anywhere.
        #[test]
        fn has_token_is_tokenize_contains(
            text in "\\PC{0,24}",
            other in "\\PC{0,6}",
            pick in 0usize..64,
        ) {
            let tokens = tokenize(&text);
            let raw: Vec<&str> = text.split(|c: char| !c.is_alphanumeric()).collect();
            let before = token_passes();
            for word in [
                tokens.get(pick % tokens.len().max(1)).map_or("", String::as_str),
                raw[pick % raw.len()],
                other.as_str(),
                "the",
            ] {
                prop_assert_eq!(
                    has_token(&text, word),
                    tokens.iter().any(|t| t == word),
                    "{:?} in {:?}", word, text
                );
            }
            prop_assert_eq!(token_passes(), before, "a scan is not a tokenization pass");
        }
    }

    #[test]
    fn normalize_keeps_final_sigma_per_word() {
        for s in ["ΟΔΟΣ ΟΔΟΣ", "aΣ\u{301} Σa", " ΣΣ\u{A0}Σ ", "ΑΣ\tb"] {
            assert_eq!(normalize(s), normalize_oracle(s), "{s:?}");
        }
        assert_eq!(normalize("ΟΔΟΣ  ΟΔΟΣ"), "οδος οδος");
    }
}

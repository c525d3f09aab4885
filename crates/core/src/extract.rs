//! Automated metadata extraction — the paper's "automated meta-data
//! extraction tool" (§IV-C1) for turning raw files into schema-conformant
//! field values.
//!
//! The simulator's raw files are `key: value` text blobs (the role ID3
//! tags played for MP3s). Extraction maps keys onto the community
//! schema's leaf fields by name, case-insensitively, dropping anything
//! the schema does not know.

use crate::community::Community;
use crate::forms::FormKind;

/// Extracted `(field path, value)` pairs ready for
/// [`crate::FormModel::fill`].
pub type ExtractedFields = Vec<(String, String)>;

/// Extracts metadata from a `key: value` text blob against a community's
/// schema. Unknown keys are ignored; repeated keys produce repeated
/// fields.
///
/// ```
/// use up2p_core::{extract_metadata, Community};
/// use up2p_schema::{FieldKind, SchemaBuilder};
///
/// let mut b = SchemaBuilder::new("song");
/// b.field(FieldKind::text("title").searchable())
///     .field(FieldKind::text("artist").searchable());
/// let community = Community::from_builder("mp3", "d", "k", "c", "", &b)?;
///
/// let fields = extract_metadata(&community, "Title: So What\nArtist: Miles Davis\nBitrate: 192");
/// assert_eq!(fields, vec![
///     ("song/title".to_string(), "So What".to_string()),
///     ("song/artist".to_string(), "Miles Davis".to_string()),
/// ]);
/// # Ok::<(), up2p_core::CoreError>(())
/// ```
pub fn extract_metadata(community: &Community, raw: &str) -> ExtractedFields {
    let compiled = community.compiled();
    let fields = compiled.form_fields(FormKind::Create);
    let mut out = Vec::new();
    for line in raw.lines() {
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim().to_lowercase();
        let value = value.trim();
        if value.is_empty() {
            continue;
        }
        if let Some(f) = fields.iter().find(|f| f.name.to_lowercase() == key) {
            out.push((f.path.clone(), value.to_string()));
        }
    }
    // preserve schema order for single occurrences, keep duplicates in
    // input order
    out.sort_by_key(|(path, _)| {
        fields.iter().position(|f| &f.path == path).unwrap_or(usize::MAX)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use up2p_schema::{FieldKind, SchemaBuilder};

    fn community() -> Community {
        let mut b = SchemaBuilder::new("song");
        b.field(FieldKind::text("title").searchable())
            .field(FieldKind::text("artist").searchable())
            .field(FieldKind::text("genre").searchable())
            .field(FieldKind::text("tag").optional().repeated());
        Community::from_builder("mp3", "d", "k", "c", "", &b).unwrap()
    }

    #[test]
    fn extracts_known_keys_case_insensitively() {
        let fields = extract_metadata(
            &community(),
            "TITLE: Blue in Green\nartist: Bill Evans\nGenre: jazz\nBitrate: 320",
        );
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("song/title".to_string(), "Blue in Green".to_string()));
        assert_eq!(fields[2].0, "song/genre");
    }

    #[test]
    fn repeated_keys_become_repeated_fields() {
        let fields =
            extract_metadata(&community(), "title: x\ntag: modal\ntag: 1959\ntag: live");
        let tags: Vec<&str> = fields
            .iter()
            .filter(|(p, _)| p == "song/tag")
            .map(|(_, v)| v.as_str())
            .collect();
        assert_eq!(tags, vec!["modal", "1959", "live"]);
    }

    #[test]
    fn garbage_lines_ignored() {
        let fields =
            extract_metadata(&community(), "no colon here\n: empty key\ntitle:\ntitle: ok");
        assert_eq!(fields, vec![("song/title".to_string(), "ok".to_string())]);
    }

    #[test]
    fn values_keep_inner_colons() {
        let fields = extract_metadata(&community(), "title: A: The Beginning");
        assert_eq!(fields[0].1, "A: The Beginning");
    }

    #[test]
    fn output_feeds_form_fill() {
        let c = community();
        let fields = extract_metadata(&c, "title: So What\nartist: Miles Davis\ngenre: jazz");
        let pairs: Vec<(&str, &str)> =
            fields.iter().map(|(p, v)| (p.as_str(), v.as_str())).collect();
        let form = crate::FormModel::derive(&c, crate::FormKind::Create);
        let doc = form.fill("song", &pairs).unwrap();
        c.validate(&doc).unwrap();
    }
}

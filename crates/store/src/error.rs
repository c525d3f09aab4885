//! Error type for the object store.

use std::fmt;

/// Error produced by repository operations.
#[derive(Debug)]
pub enum StoreError {
    /// The object XML could not be parsed.
    InvalidXml(up2p_xml::ParseXmlError),
    /// A query string could not be parsed.
    InvalidQuery(String),
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// A persisted file was structurally wrong.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidXml(e) => write!(f, "invalid object XML: {e}"),
            StoreError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::InvalidXml(e) => Some(e),
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<up2p_xml::ParseXmlError> for StoreError {
    fn from(e: up2p_xml::ParseXmlError) -> Self {
        StoreError::InvalidXml(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::Corrupt("crc".into()).to_string().contains("corrupt store file"));
        assert!(StoreError::InvalidQuery("eof".into()).to_string().contains("invalid query"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}

//! # up2p-xml
//!
//! XML substrate for the U-P2P reproduction: a from-scratch XML 1.0 subset
//! parser, an arena DOM with parent pointers, one streaming [`Writer`] per
//! output method (XML, HTML, text) that a tree is replayed into, and an
//! XPath 1.0 subset engine.
//!
//! The paper's implementation used the Xerces (parsing) and Xalan (XSLT)
//! Java libraries; this crate plays the Xerces role and provides the XPath
//! engine that both the XSLT engine (`up2p-xslt`) and the metadata query
//! layer (`up2p-store`) build on.
//!
//! ## Quick start
//!
//! ```
//! use up2p_xml::{Document, ElementBuilder, XPath};
//!
//! // Parse
//! let doc = Document::parse("<community><name>mp3</name></community>")?;
//! assert_eq!(doc.text_content(doc.document_element().unwrap()), "mp3");
//!
//! // Query
//! let xp = XPath::parse("/community/name")?;
//! assert_eq!(xp.eval_root(&doc)?.into_string(&doc), "mp3");
//!
//! // Build and serialize
//! let built = ElementBuilder::new("community").child_text("name", "cml").build();
//! assert_eq!(built.to_xml_string(), "<community><name>cml</name></community>");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod document;
mod error;
mod escape;
mod name;
mod parser;
mod writer;
pub mod xpath;

pub use builder::ElementBuilder;
pub use document::{Attribute, Document, NodeId, NodeKind};
pub use error::{ParseErrorKind, ParseXmlError, TextPos, XPathError};
pub use escape::{
    escape_attr, escape_attr_into, escape_comment_into, escape_text, escape_text_into, unescape,
};
pub use name::{is_valid_ncname, ParseQNameError, QName};
pub use writer::{OutputMethod, Sink, Writer};
pub use xpath::{Context, Value, XNode, XPath};

/// The XML Schema namespace URI (`http://www.w3.org/2001/XMLSchema`).
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
/// The XSLT 1.0 namespace URI (`http://www.w3.org/1999/XSL/Transform`).
pub const XSLT_NS: &str = "http://www.w3.org/1999/XSL/Transform";
/// The U-P2P extension namespace used for `up2p:searchable` annotations.
pub const UP2P_NS: &str = "http://up2p.sce.carleton.ca/ns";

//! # up2p-xslt
//!
//! XSLT 1.0 subset engine for the U-P2P reproduction — the Xalan role in
//! the paper's stack. U-P2P's generative pipeline (Fig. 2 of the paper)
//! turns a community's XML Schema into create/search/view HTML interfaces
//! by applying XSLT stylesheets; this crate executes those stylesheets.
//!
//! One interpreter runs a compiled [`Stylesheet`] into an output sink:
//! [`Stylesheet::apply`] builds the result tree, and
//! [`Stylesheet::apply_to_string`] streams the page straight into
//! [`up2p_xml::Writer`] by the sheet's `xsl:output` method (XML, HTML or
//! text), building no tree — byte for byte what the tree serializes to.
//!
//! ```
//! use up2p_xslt::Stylesheet;
//! use up2p_xml::Document;
//!
//! let sheet = Stylesheet::parse(r#"
//!   <xsl:stylesheet version="1.0"
//!       xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
//!     <xsl:output method="html"/>
//!     <xsl:template match="/">
//!       <ul><xsl:apply-templates select="//name"/></ul>
//!     </xsl:template>
//!     <xsl:template match="name"><li><xsl:value-of select="."/></li></xsl:template>
//!   </xsl:stylesheet>"#)?;
//!
//! let src = Document::parse("<c><name>mp3</name><name>cml</name></c>")?;
//! assert_eq!(sheet.apply_to_string(&src)?, "<ul><li>mp3</li><li>cml</li></ul>");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compiler;
mod engine;
mod error;
mod output;
mod pattern;

pub use compiler::{Avt, AvtPart, Instruction, ParamBinding, SortSpec, Stylesheet, Template};
pub use error::XsltError;
pub use output::to_html;
/// Output method requested by `xsl:output`.
pub use up2p_xml::OutputMethod;
pub use pattern::Pattern;

//! Structured trace events.
//!
//! The old `PassContext::trace` pushed bare strings; a [`TraceEvent`] keeps
//! the same human-readable message but adds the pieces machine consumers
//! need: a verbosity level, the emitting scope (pass name), and key=value
//! fields. The legacy `[mao] <line>` stderr output is produced by
//! [`TraceEvent::legacy_line`], so existing tooling that scrapes stderr
//! keeps working unchanged while in-process consumers read the fields.
//!
//! Events are built *lazily*: the tracing entry points take a closure, so a
//! filtered-out level never formats anything.

use std::fmt::Display;

/// One structured trace event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Verbosity level; filled by the emitting context from the call.
    pub level: u8,
    /// Emitting scope — the pass name for pipeline events. Filled by the
    /// context when left empty.
    pub scope: String,
    /// The human-readable line, exactly as the legacy tracer printed it.
    pub message: String,
    /// Structured key=value attachments.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// An event carrying just a message (scope and level filled by the
    /// emitting context).
    pub fn new(message: impl Into<String>) -> TraceEvent {
        TraceEvent {
            message: message.into(),
            ..TraceEvent::default()
        }
    }

    /// Attach a key=value field (builder style).
    pub fn field(mut self, key: &str, value: impl Display) -> TraceEvent {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Override the scope (normally inherited from the pass context).
    pub fn scope(mut self, scope: impl Into<String>) -> TraceEvent {
        self.scope = scope.into();
        self
    }

    /// The legacy rendering: the bare message, exactly what the pre-event
    /// tracer pushed and the driver printed as `[mao] <line>`.
    pub fn legacy_line(&self) -> &str {
        &self.message
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_line_is_the_bare_message() {
        let ev = TraceEvent::new("REDTEST: 3 removed")
            .field("removed", 3)
            .scope("REDTEST");
        assert_eq!(ev.legacy_line(), "REDTEST: 3 removed");
    }

    #[test]
    fn default_event_is_empty() {
        let ev = TraceEvent::new("x");
        assert_eq!(ev.level, 0);
        assert!(ev.scope.is_empty());
        assert!(ev.fields.is_empty());
    }
}

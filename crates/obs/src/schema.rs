//! [`schema!`](crate::schema!): an Observatory struct declared as a table.
//!
//! Every layer's `*Obs` struct is one invocation: a header naming the
//! struct, then one row per metric in registration order.
//!
//! ```
//! campuslab_obs::schema! {
//!     /// Metrics for one demo queue.
//!     pub struct QueueObs [prefix: String] [tracer: campuslab_obs::Tracer] {
//!         /// Items accepted.
//!         counter accepted: "q_accepted_total", "items accepted into the queue";
//!         /// Indexed by cause: full, closed.
//!         counter refused: "q_refused_total" {cause = ["full", "closed"]}, "items refused";
//!         /// Items waiting now.
//!         gauge depth: "q_depth", "items currently queued";
//!         /// Time spent queued.
//!         histogram wait_histogram: "q_wait_us", "queueing delay, microseconds", &[10, 100];
//!     }
//! }
//! let mut obs = QueueObs::with_prefix("t1_");
//! obs.sink.inc(obs.accepted);
//! obs.sink.inc(obs.refused[1]);
//! assert_eq!(obs.accepted(), 1);
//! assert!(obs.render().contains("t1_q_refused_total{cause=\"closed\"} 1"));
//! assert!(obs.thaw(QueueObs::new().sink, Default::default()).is_ok());
//! ```
//!
//! A row is `kind field: "family" {label = "value"}, "help", bounds;` —
//! the label is optional (a bracketed value list registers one counter per
//! value and makes the field an array of ids), `bounds` belongs to
//! histograms only, and the row's doc comment becomes the getter's. From
//! the table the macro generates:
//!
//! * the struct: a private [`Registry`](crate::Registry), `pub sink`, one
//!   private typed-id field per row, plus `prefix` / `pub tracer` when the
//!   header opts in with `[prefix: String]` / `[tracer: Tracer]`;
//! * `new()` and `Default`, registering the rows **top to bottom** — ids
//!   are positional, `render` walks them and sinks are serialised into
//!   checkpoints, so row order is frozen: append, never insert or reorder;
//! * one `pub` getter per single-id row, named after the field and
//!   returning `u64` / `i64` / `&Histogram` (label-list rows get their
//!   typed getters hand-written beside the table);
//! * `render()` (under the instance prefix, if any), `metrics()`,
//!   `fits(&sink)` and a checked `thaw(sink[, tracer])`; with a prefix
//!   also `with_prefix(..)` and `prefix()`.
//!
//! Bump methods that carry logic stay hand-written in a plain `impl`
//! beside the table; they index `self.sink` through the id fields.

/// Declare an Observatory struct as a table; see the [module docs](mod@crate::schema).
#[macro_export]
macro_rules! schema {
    (
        $(#[$smeta:meta])*
        $vis:vis struct $name:ident $([prefix: $pty:ty])? $([tracer: $tty:ty])? {
            $(
                $(#[$rmeta:meta])*
                $kind:ident $field:ident : $family:literal $({ $lk:ident = $lv:tt })? ,
                    $help:expr $(, $bounds:expr)? ;
            )+
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone)]
        $vis struct $name {
            registry: $crate::Registry,
            $(
                /// Instance prefix on every rendered family name and span
                /// label ("" for a single-operator run).
                prefix: $pty,
            )?
            /// Value store; bumped by the owner, read back through the getters.
            pub sink: $crate::ObsSink,
            $(
                /// Spans this layer records, stamped in sim-time.
                pub tracer: $tty,
            )?
            $( $(#[$rmeta])* $field: $crate::schema!(@id $kind $($lv)?), )+
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl $name {
            /// Build the schema (rows registered top to bottom) and a zeroed sink.
            pub fn new() -> Self {
                let mut reg = $crate::Registry::new();
                $(
                    let $field = $crate::schema!(
                        @reg reg $kind $family $({ $lk = $lv })?, $help $(, $bounds)?
                    );
                )+
                let sink = reg.sink();
                Self {
                    registry: reg,
                    $(prefix: <$pty>::new(),)?
                    sink,
                    $(tracer: <$tty>::new(),)?
                    $($field,)+
                }
            }

            $(
                /// The same schema under an instance prefix (e.g. a tenant
                /// name plus `_`); `""` is byte-identical to `new()`.
                pub fn with_prefix(prefix: impl Into<$pty>) -> Self {
                    Self { prefix: prefix.into(), ..Self::new() }
                }

                /// The instance prefix ("" for single-operator runs).
                pub fn prefix(&self) -> &str {
                    &self.prefix
                }
            )?

            $( $crate::schema!(@getter $(#[$rmeta])* $kind $field $($lv)?); )+

            /// Render as Prometheus text, rows in table order (family names
            /// carry the instance prefix, if the table has one).
            pub fn render(&self) -> String {
                self.registry.render_prefixed(&self.sink, $crate::schema!(@prefix self $($pty)?))
            }

            /// The table's rows, in registration order.
            pub fn metrics(&self) -> impl Iterator<Item = $crate::Metric<'_>> + '_ {
                self.registry.metrics()
            }

            /// Whether `sink` has this table's shape (see `Registry::fits`).
            pub fn fits(&self, sink: &$crate::ObsSink) -> bool {
                self.registry.fits(sink)
            }

            /// Take over values frozen by an earlier instance of this table.
            /// A sink of any other shape is refused and `self` is left as it
            /// was: ids are positional, so a misfit would index out of bounds.
            pub fn thaw(
                &mut self,
                sink: $crate::ObsSink
                $(, tracer: $tty)?
            ) -> Result<(), $crate::SinkMisfit> {
                if !self.fits(&sink) {
                    return Err($crate::SinkMisfit);
                }
                self.sink = sink;
                $(self.tracer = <$tty>::from(tracer);)?
                Ok(())
            }
        }
    };

    // The id type of a row: label-list rows hold one id per value.
    (@id counter [$($lv:literal),+]) => { [$crate::CounterId; [$($lv),+].len()] };
    (@id counter $($lv:literal)?) => { $crate::CounterId };
    (@id gauge) => { $crate::GaugeId };
    (@id histogram) => { $crate::HistogramId };

    // Register one row.
    (@reg $reg:ident counter $family:literal, $help:expr) => { $reg.counter($family, $help) };
    (@reg $reg:ident counter $family:literal { $lk:ident = [$($lv:literal),+] }, $help:expr) => {
        [$($crate::schema!(@reg $reg counter $family { $lk = $lv }, $help)),+]
    };
    (@reg $reg:ident counter $family:literal { $lk:ident = $lv:literal }, $help:expr) => {
        $reg.counter_with_label($family, Some(concat!(stringify!($lk), "=\"", $lv, "\"")), $help)
    };
    (@reg $reg:ident gauge $family:literal, $help:expr) => { $reg.gauge($family, $help) };
    (@reg $reg:ident histogram $family:literal, $help:expr, $bounds:expr) => {
        $reg.histogram($family, $help, $bounds)
    };

    // The typed getter of a single-id row.
    (@getter $(#[$rmeta:meta])* counter $field:ident $($lv:literal)?) => {
        $(#[$rmeta])*
        pub fn $field(&self) -> u64 {
            self.sink.counter(self.$field)
        }
    };
    (@getter $(#[$rmeta:meta])* counter $field:ident [$($lv:literal),+]) => {};
    (@getter $(#[$rmeta:meta])* gauge $field:ident) => {
        $(#[$rmeta])*
        pub fn $field(&self) -> i64 {
            self.sink.gauge(self.$field)
        }
    };
    (@getter $(#[$rmeta:meta])* histogram $field:ident) => {
        $(#[$rmeta])*
        pub fn $field(&self) -> &$crate::Histogram {
            self.sink.histogram(self.$field)
        }
    };

    (@prefix $obs:ident) => { "" };
    (@prefix $obs:ident $pty:ty) => { &$obs.prefix };
}

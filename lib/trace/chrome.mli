(** Chrome [trace_event] JSON exporter.

    Renders a {!Trace.t} as the JSON Array/Object format that Chrome's
    [about:tracing] and Perfetto ingest: one thread track per trace track
    (named via metadata events), complete-span ["X"] events for the paired
    kinds (serve, translate, fill), counter ["C"] tracks for queue depths
    (both sampled gauges and per-service arrival depths), and instant
    ["i"] events for morph decisions, fault injections, recoveries, and
    code-cache misses/installs. Timestamps are simulated cycles reported
    as microseconds. *)

val to_file : string -> Trace.t -> unit

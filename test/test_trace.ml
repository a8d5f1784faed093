(* The observability subsystem: recorder mechanics, timing neutrality,
   exporters, and the congestion signatures behind the bench trace demo. *)

open Vat_core
open Vat_workloads
module Tr = Vat_trace.Trace
module Report = Vat_trace.Report

(* ------------------------------------------------------------------ *)
(* Recorder mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let test_recorder_basics () =
  let t = Tr.create () in
  Alcotest.(check bool) "enabled" true (Tr.enabled t);
  let a = Tr.track t "a" in
  let b = Tr.track t "b" in
  Alcotest.(check int) "tracks allocate densely" (a + 1) b;
  Alcotest.(check int) "track is idempotent" a (Tr.track t "a");
  Alcotest.(check int) "n_tracks" 2 (Tr.n_tracks t);
  Alcotest.(check string) "track_name" "b" (Tr.track_name t b);
  Alcotest.(check (option int)) "find_track" (Some b) (Tr.find_track t "b");
  Alcotest.(check (option int)) "find_track misses" None (Tr.find_track t "z");
  let e = Tr.emitter t ~track:a Tr.Serve_begin in
  Tr.emit e ~cycle:3 ~arg:7;
  Tr.emit e ~cycle:9 ~arg:1;
  Alcotest.(check int) "length" 2 (Tr.length t);
  Alcotest.(check int) "total" 2 (Tr.total t);
  Alcotest.(check int) "dropped" 0 (Tr.dropped t);
  Alcotest.(check int) "max_cycle" 9 (Tr.max_cycle t);
  let recs = ref [] in
  Tr.iter t (fun r -> recs := r :: !recs);
  match List.rev !recs with
  | [ r1; r2 ] ->
    Alcotest.(check int) "first cycle" 3 r1.Tr.cycle;
    Alcotest.(check int) "first arg" 7 r1.Tr.arg;
    Alcotest.(check int) "first track" a r1.Tr.track;
    Alcotest.(check bool) "first kind" true (r1.Tr.kind = Tr.Serve_begin);
    Alcotest.(check int) "second cycle" 9 r2.Tr.cycle
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_ring_wrap () =
  (* max_records is clamped to >= 16, and the arena starts at
     min(initial, max), so 16 wraps immediately. *)
  let t = Tr.create ~max_records:16 () in
  let e = Tr.emitter t ~track:(Tr.track t "x") Tr.Cache_hit in
  for i = 1 to 40 do
    Tr.emit e ~cycle:i ~arg:i
  done;
  Alcotest.(check int) "held" 16 (Tr.length t);
  Alcotest.(check int) "total" 40 (Tr.total t);
  Alcotest.(check int) "dropped" 24 (Tr.dropped t);
  let first = ref (-1) and last = ref 0 and n = ref 0 and mono = ref true in
  Tr.iter t (fun r ->
      if !first < 0 then first := r.Tr.cycle;
      if r.Tr.cycle < !last then mono := false;
      last := r.Tr.cycle;
      incr n);
  Alcotest.(check int) "iter visits held records" 16 !n;
  Alcotest.(check int) "oldest surviving record" 25 !first;
  Alcotest.(check int) "newest record" 40 !last;
  Alcotest.(check bool) "iter is oldest-first" true !mono

let test_disabled_inert () =
  let t = Tr.disabled in
  Alcotest.(check bool) "not enabled" false (Tr.enabled t);
  Alcotest.(check int) "track is a no-op returning 0" 0 (Tr.track t "any");
  Alcotest.(check int) "no tracks registered" 0 (Tr.n_tracks t);
  let e = Tr.emitter t ~track:0 Tr.Serve_begin in
  Tr.emit e ~cycle:1 ~arg:1;
  Tr.emit Tr.null_emitter ~cycle:2 ~arg:2;
  Alcotest.(check int) "nothing recorded" 0 (Tr.length t);
  Alcotest.(check int) "nothing emitted" 0 (Tr.total t)

(* ------------------------------------------------------------------ *)
(* Traced simulations (one gzip run, shared across the tests below)    *)
(* ------------------------------------------------------------------ *)

let fuel = 50_000_000
let gzip = Suite.find "gzip"
let memo = Vat_core.Translate.Memo.create ()

let traced_run cfg =
  let trace = Tr.create () in
  let r = Vm.run ~fuel ~memo ~trace cfg (Suite.load gzip) in
  (trace, r)

let gzip_traced = lazy (traced_run Config.default)

let test_timing_neutral () =
  let trace, traced = Lazy.force gzip_traced in
  let plain = Vm.run ~fuel ~memo Config.default (Suite.load gzip) in
  Alcotest.(check int) "cycles identical" plain.Vm.cycles traced.Vm.cycles;
  Alcotest.(check int) "digest identical" plain.Vm.digest traced.Vm.digest;
  Alcotest.(check int) "guest insns identical" plain.Vm.guest_insns
    traced.Vm.guest_insns;
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " identical")
        (Vat_desim.Stats.get plain.Vm.stats name)
        (Vat_desim.Stats.get traced.Vm.stats name))
    [ "l2code.accesses"; "l1code.hits"; "exec.dispatches"; "l15.hits" ];
  Alcotest.(check bool) "the traced run actually recorded" true
    (Tr.length trace > 0)

let test_trace_contents () =
  let trace, r = Lazy.force gzip_traced in
  Alcotest.(check bool) "manager track exists" true
    (Tr.find_track trace "manager" <> None);
  Alcotest.(check bool) "exec track exists" true
    (Tr.find_track trace "exec" <> None);
  Alcotest.(check bool) "gauge track exists" true
    (Tr.find_track trace "translate-queue" <> None);
  Alcotest.(check bool) "cycles bound trace times" true
    (Tr.max_cycle trace <= r.Vm.cycles);
  (* Every track's busy fraction is a fraction. *)
  for track = 0 to Tr.n_tracks trace - 1 do
    let f = Report.busy_fraction trace ~track ~total_cycles:r.Vm.cycles in
    if f < 0. || f > 1. then
      Alcotest.failf "track %s busy fraction %f out of [0,1]"
        (Tr.track_name trace track) f
  done

let test_hot_blocks_cover_majority () =
  let trace, _ = Lazy.force gzip_traced in
  let profile = Report.block_profile trace in
  Alcotest.(check bool) "profile is non-empty" true (profile <> []);
  let entries st = st.Report.dispatches + st.Report.chains in
  let total = List.fold_left (fun acc st -> acc + entries st) 0 profile in
  let top5 =
    List.filteri (fun i _ -> i < 5) profile
    |> List.fold_left (fun acc st -> acc + entries st) 0
  in
  (* gzip's deflate loop dominates: a handful of blocks should carry
     most block entries (empirically ~95%). *)
  Alcotest.(check bool) "top 5 blocks carry the majority of entries" true
    (2 * top5 > total)

let test_chrome_export () =
  let trace, _ = Lazy.force gzip_traced in
  let path = Filename.temp_file "vat_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vat_trace.Chrome.to_file path trace;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "object wrapper" true
        (String.length s > 2 && s.[0] = '{');
      Alcotest.(check bool) "traceEvents key" true (has "\"traceEvents\"");
      Alcotest.(check bool) "thread-name metadata" true
        (has "\"thread_name\"");
      Alcotest.(check bool) "complete spans" true (has "\"ph\":\"X\"");
      Alcotest.(check bool) "counter samples" true (has "\"ph\":\"C\"");
      Alcotest.(check bool) "balanced braces" true
        (let depth = ref 0 in
         String.iter
           (fun c ->
             if c = '{' then incr depth else if c = '}' then decr depth)
           s;
         !depth = 0))

(* The traced run's two exports, pinned byte for byte: a change in track
   registration order, in what any component emits, or in either exporter
   fails here. *)
let test_exports_pinned () =
  let trace, r = Lazy.force gzip_traced in
  let path = Filename.temp_file "vat_trace" ".json" in
  let json =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Vat_trace.Chrome.to_file path trace;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "chrome json digest" "8387c44aa0614b73b8615cea6ccce340" (md5 json);
  Alcotest.(check string) "text report digest" "d0f008fb1ac69698570d1aa1196663c9"
    (md5 (Report.render trace ~total_cycles:r.Vm.cycles))

let test_manager_congestion_inverts () =
  (* Figure 5's mechanism: with one translation tile the run is gated on
     translation, so the manager idles; with nine the manager becomes the
     busy shared resource. The memo is sound across configurations. *)
  let busy (trace, (r : Vm.result)) =
    match Tr.find_track trace "manager" with
    | None -> Alcotest.fail "manager track missing"
    | Some track -> Report.busy_fraction trace ~track ~total_cycles:r.Vm.cycles
  in
  let b1 = busy (traced_run { Config.default with n_translators = 1 }) in
  let b9 = busy (traced_run (Config.trans_heavy Config.default)) in
  Alcotest.(check bool)
    (Printf.sprintf "manager busier with 9 translators (%.3f) than 1 (%.3f)"
       b9 b1)
    true (b9 > b1)

(* ------------------------------------------------------------------ *)
(* Metrics.summary gating for the queue high-water-mark rows           *)
(* ------------------------------------------------------------------ *)

let mk_result stats =
  { Vm.outcome = Exec.Exited 0;
    cycles = 100;
    guest_insns = 10;
    output = "";
    digest = 0;
    stats }

let test_summary_gating () =
  let s = Vat_desim.Stats.create () in
  let names () = List.map fst (Metrics.summary (mk_result s)) in
  Alcotest.(check bool) "unobserved hwm row is hidden" false
    (List.mem "mgr_queue_hwm" (names ()));
  Alcotest.(check bool) "fault rows hidden on a clean run" false
    (List.mem "faults_injected" (names ()));
  Vat_desim.Stats.set_max s "svc.mgr_queue_hwm" 4;
  Alcotest.(check bool) "observed hwm row appears" true
    (List.mem "mgr_queue_hwm" (names ()));
  Alcotest.(check bool) "other hwm rows stay hidden" false
    (List.mem "l2d_queue_hwm" (names ()));
  Vat_desim.Stats.incr s "fault.injected";
  Alcotest.(check bool) "fault rows appear once faults inject" true
    (List.mem "faults_injected" (names ()))

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [ quick "recorder basics" test_recorder_basics;
    quick "ring wrap" test_ring_wrap;
    quick "disabled recorder is inert" test_disabled_inert;
    quick "tracing is timing-neutral" test_timing_neutral;
    quick "trace contents and busy fractions" test_trace_contents;
    quick "hot blocks cover the majority" test_hot_blocks_cover_majority;
    quick "chrome export structure" test_chrome_export;
    quick "exports pinned" test_exports_pinned;
    quick "manager congestion inverts with translators"
      test_manager_congestion_inverts;
    quick "metrics summary gating" test_summary_gating ]

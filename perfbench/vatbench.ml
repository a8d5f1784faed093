(* Host-time benchmark for vat.

     vatbench --workload NAME --seed N --seconds S --trace 0|1
              [--fault-seed N]
     vatbench --print-golden

   With --trace 0 it times passes over the workload's cells with tracing
   off and reports the end-to-end metrics; with --trace 1 it runs one
   untraced pass, one traced pass and the per-layer probes, and reports
   the per-layer metrics. Either way every modelled result is checked and
   the last line of standard output is one JSON object. See README.md. *)

module Span = Vatbench_lib.Span
module Fp = Vatbench_lib.Fp
module W = Work
module L = Layers

let finite x = if Float.is_finite x then x else 0.

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (l : L.metric) ->
         Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" l.name
           (finite l.value) l.unit)
       metrics)

let print_result ~correct (t : W.tally) metrics =
  List.iter
    (fun (l : L.metric) -> Printf.printf "  %-30s %16.6f %s\n" l.name l.value l.unit)
    metrics;
  Printf.printf "  %-30s %16d of %d checked simulations\n" "failed_cells" t.failed
    t.attempted;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev t.problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct t.attempted t.failed (metrics_json metrics)

let kernel_summary k =
  match List.filter_map (fun (k', s) -> if k = k' then Some s else None) !W.reference_log with
  | [] -> "not run"
  | l ->
    Printf.sprintf "%.2f ms (nominal %.0f ms, median of %d)"
      (1000. *. Vatbench_lib.Stat.median l) (1000. *. W.nominal k) (List.length l)

(* Set-up from scratch on a compacted heap, at least three times and for at
   least two seconds, each bracketed by five allocation-kernel runs on
   either side (one kernel run is too short to gauge the host's speed over
   a set-up of seconds): setup_s is the median in reference seconds, and
   the last set-up is the one the timed section uses. *)
let end_to_end ~seconds ~rng ~fault_seed t (w : W.workload) =
  let times = ref [] and raw = ref [] and setup = ref None in
  let kernel () =
    Vatbench_lib.Stat.median (List.init 5 (fun _ -> W.reference_seconds W.Alloc))
  in
  while List.length !times < 3 || List.fold_left ( +. ) 0. !raw < 2. do
    setup := None;
    Gc.compact ();
    let before = kernel () in
    let s, secs, _ = W.timed (fun () -> W.setup t w) in
    let after = kernel () in
    times := W.at_reference W.Alloc ~before ~after secs :: !times;
    raw := secs :: !raw;
    setup := Some s
  done;
  let setup = Option.get !setup in
  let r = W.measure ~seconds ~rng ~fault_seed t setup w in
  let top = (Gc.quick_stat ()).top_heap_words in
  Printf.printf
    "%s: %d set-ups, %d passes of %d cells; pass wall seconds %s\n\
     one pass: %d guest instructions, %d modelled cycles; %d memo misses \
     in the timed passes\n\
     raw wall seconds: set-up %.3f, one pass %.3f\n\
     allocation kernel %s; cell kernel %s\n"
    w.name (List.length !times) r.passes (List.length w.cells)
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.pass_s))
    r.insns r.cycles r.memo_misses
    (Vatbench_lib.Stat.median !raw) r.raw_s
    (kernel_summary W.Alloc) (kernel_summary w.kernel);
  [ L.m "setup_s" "s" (Vatbench_lib.Stat.median !times);
    L.m "host_s" "s" r.host_s;
    L.m "guest_insns_per_s" "1/s" (float_of_int r.insns /. r.host_s);
    L.m "alloc_mwords" "Mwords" (r.words /. 1e6);
    L.m "heap_peak_mb" "MB"
      (float_of_int (top * (Sys.word_size / 8)) /. 1048576.) ]

let spans_dir = ".bench_build/spans"

let rec mkdir_p d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let per_layer ~seed ~rng ~fault_seed t (w : W.workload) =
  let spans = Span.create ~enabled:true in
  let kernel =
    Vatbench_lib.Stat.median (List.init 9 (fun _ -> W.reference_seconds w.kernel))
  in
  let setup = Span.with_ spans "setup" (fun () -> W.setup ~spans t w) in
  let h0, m0 = W.memo_counts setup in
  let untraced =
    Span.with_ spans "pass.untraced" (fun () ->
        W.pass ~spans ~rng ~fault_seed t setup w)
  in
  let h1, m1 = W.memo_counts setup in
  (* The traced pass records a Vat_trace run per cell: it must reproduce
     the untraced pass exactly, counters included. *)
  let o = L.observed () in
  let traced =
    Span.with_ spans "pass.traced" (fun () ->
        W.pass ~spans ~rng ~fault_seed t setup w
          ~trace_for:(fun _ -> Vat_trace.Trace.create ())
          ~traced:(fun c r tr ->
            let d = Fp.diff (List.assq c untraced).fp r.W.fp in
            W.check t (d = [])
              (Printf.sprintf "%s: traced run differs from untraced (%s)"
                 (W.cell_id c) (String.concat "," d));
            L.observe o c tr))
  in
  let memos, translate =
    L.translation ~spans ~setup ~memo_counts:(h1 - h0, m1 - m0) o w
  in
  let sim = L.engine ~spans ~tally:t ~setup ~memos w in
  let memsys = L.memsys ~spans setup o w in
  let snapshot = L.snapshot ~spans ~tally:t ~fault_seed ~setup ~memos w in
  let total name = Span.total spans name *. 1000. in
  (* Cell seconds only: compaction and trace reading are not recording. *)
  let work runs =
    List.fold_left
      (fun (s, i, c) (_, (r : W.run)) -> (s +. r.seconds, i + r.fp.insns, c + r.fp.cycles))
      (0., 0, 0) runs
  in
  let us, ui, uc = work untraced and ts, ti, tc = work traced in
  let metrics =
    translate @ sim @ memsys @ snapshot
    @ [ L.m "piii.ms" "ms" (total "piii.run");
        L.m "suite.load_ms" "ms" (total "suite.load");
        L.m "reference.kernel_ms" "ms" (kernel *. 1000.);
        L.m "trace.overhead_ratio" "ratio" (ts /. us) ]
  in
  if o.dropped > 0 then
    W.check t false
      (Printf.sprintf "trace recorder dropped %d records; block set incomplete"
         o.dropped);
  Printf.printf
    "%s: untraced cells %.3f s, %d guest instructions, %d modelled cycles\n\
     traced cells %.3f s, %d guest instructions, %d modelled cycles \
     (overhead x%.3f)\nspan totals and self times:\n"
    w.name us ui uc ts ti tc (ts /. us);
  List.iter
    (fun (name, (n, d, self)) ->
      Printf.printf "  %-24s %6d calls %10.1f ms total %10.1f ms self\n" name n
        (d *. 1000.) (self *. 1000.))
    (Span.summary spans);
  mkdir_p spans_dir;
  let path = Printf.sprintf "%s/%s-seed%d.json" spans_dir w.name seed in
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"fault_seed\": %d,\n\"layers\": {%s},\n\"spans\": %s}\n"
    w.name seed fault_seed (metrics_json metrics) (Span.to_json spans);
  close_out oc;
  Printf.printf "spans and per-layer table written to %s\n" path;
  metrics

(* Runs every cell of every workload once and prints golden.ml. *)
let print_golden () =
  let t = W.tally () in
  let cells = ref [] and piii = ref [] in
  List.iter
    (fun name ->
      let w = Option.get (W.workload ~fault_seed:W.default_fault_seed name) in
      let setup = W.setup t w in
      List.iter
        (fun (b, prog) ->
          if not (List.mem_assoc b !piii) then begin
            let r = Vat_refmodel.Piii.run (Vat_guest.Program.clone prog) in
            piii := (b, (r.cycles, r.instructions)) :: !piii
          end)
        setup.progs;
      List.iter
        (fun c ->
          if not (List.mem_assoc (W.cell_id c) !cells) then
            cells := (W.cell_id c, (W.run_cell setup c).fp) :: !cells)
        w.cells)
    W.workload_names;
  print_string
    "(* Pinned modelled results of every benchmark cell (outcome, cycles,\n\
    \   guest instructions, digest) and of the PIII reference runs, for the\n\
    \   default fault seed. Generated by [vatbench --print-golden]. *)\n\n\
     let cells = [\n";
  List.iter
    (fun (id, (f : Fp.t)) ->
      Printf.printf "  (%S, (%S, %d, %d, %d));\n" id f.outcome f.cycles f.insns
        f.digest)
    (List.rev !cells);
  print_string "]\n\nlet piii = [\n";
  List.iter
    (fun (b, (c, i)) -> Printf.printf "  (%S, (%d, %d));\n" b c i)
    (List.rev !piii);
  print_string "]\n"

let usage =
  "vatbench --workload NAME --seed N --seconds S --trace 0|1 [--fault-seed N]\n\
   workloads: " ^ String.concat ", " W.workload_names

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and fault_seed = ref W.default_fault_seed in
  let golden = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N orders the cells of every pass");
      ("--seconds", Arg.Set_float seconds, "S minimum timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--fault-seed", Arg.Set_int fault_seed,
       "N fault-plan seed for checkpoint_recovery (default 2026)");
      ("--print-golden", Arg.Set golden, " print the pinned table and exit") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with
   | Arg.Help msg -> print_string msg; exit 0
   | Arg.Bad msg -> prerr_string msg; exit 2);
  if !golden then begin
    print_golden ();
    exit 0
  end;
  match W.workload ~fault_seed:!fault_seed !workload with
  | None ->
    prerr_endline ("vatbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some w when !trace = 0 || !trace = 1 ->
    let rng = Random.State.make [| !seed |] in
    let t = W.tally () in
    let metrics =
      if !trace = 0 then end_to_end ~seconds:!seconds ~rng ~fault_seed:!fault_seed t w
      else per_layer ~seed:!seed ~rng ~fault_seed:!fault_seed t w
    in
    let correct = t.failed = 0 in
    print_result ~correct t metrics;
    exit (if correct then 0 else 1)
  | Some _ ->
    prerr_endline "vatbench: --trace takes 0 or 1";
    exit 2

(* vat_run: run a benchmark (or all of them) on a chosen virtual
   architecture and report slowdown and statistics.

   Examples:
     vat_run --list
     vat_run mcf
     vat_run gcc --translators 1 --no-speculation
     vat_run gzip --config 1m9t
     vat_run parser --morph 15 --stats *)

open Cmdliner
open Vat_core
open Vat_workloads

let build_config base translators banks l15 no_spec no_opt no_chain morph =
  let cfg =
    match base with
    | Some "1m9t" -> Config.trans_heavy Config.default
    | Some "4m6t" -> Config.mem_heavy Config.default
    | Some other -> failwith ("unknown --config " ^ other)
    | None -> Config.default
  in
  let cfg =
    match translators with Some n -> { cfg with Config.n_translators = n } | None -> cfg
  in
  let cfg = match banks with Some n -> { cfg with Config.n_l2d_banks = n } | None -> cfg in
  let cfg = match l15 with Some n -> { cfg with Config.n_l15_banks = n } | None -> cfg in
  let cfg = if no_spec then { cfg with Config.speculation = false } else cfg in
  let cfg = if no_opt then { cfg with Config.optimize = false } else cfg in
  let cfg = if no_chain then { cfg with Config.chaining = false } else cfg in
  match morph with
  | Some threshold ->
    { cfg with Config.morph = Config.Morph { threshold; dwell = 25000 } }
  | None -> cfg

let fault_plan cfg ~faults ~seed ~classes ~unrecoverable =
  if faults = 0 then Vat_desim.Fault.empty
  else
    Faultspec.plan ~recoverable_only:(not unrecoverable) ~classes cfg ~seed
      ~count:faults

(* Raised from the checkpoint sink when --halt-at is reached: carries the
   snapshot to persist before exiting with code 3. *)
exception Halted_at_checkpoint of Vat_snapshot.Snapshot.t

(* [load] is called once per simulation: guest memory is mutated by a run,
   so the reference model and the translator each get a fresh program. *)
let compute_one ?(trace = Vat_trace.Trace.disabled) ?checkpoint_every
    ?restore_from ?halt_at cfg plan load =
  let piii = Vat_refmodel.Piii.run (load ()) in
  let on_checkpoint =
    match halt_at with
    | None -> None
    | Some h ->
      Some
        (fun s ->
          if Vat_snapshot.Snapshot.cycle s >= h then
            raise (Halted_at_checkpoint s))
  in
  let rv =
    Vm.run ~fuel:100_000_000 ~faults:plan ~trace ?checkpoint_every
      ?on_checkpoint ?restore_from cfg (load ())
  in
  (piii, rv)

let print_one show_stats name
    ((piii : Vat_refmodel.Piii.result), (rv : Vm.result)) =
  let outcome =
    match rv.outcome with
    | Exec.Exited n -> Printf.sprintf "exit %d" n
    | Exec.Fault m -> "fault: " ^ m
    | Exec.Out_of_fuel -> "out of fuel"
  in
  Printf.printf
    "%-14s %-12s %9d guest insns %11d cycles   slowdown %6.2f\n" name
    outcome rv.guest_insns rv.cycles
    (Vm.slowdown rv ~piii_cycles:piii.cycles);
  if Metrics.faults_injected rv <> 0 then
    Printf.printf
      "  faults: %d injected, %d tiles lost, %d timeouts, %d retries, %d \
       degraded-path events\n"
      (Metrics.faults_injected rv)
      (Metrics.failed_tiles rv)
      (Metrics.fault_timeouts rv)
      (Metrics.fault_retries rv)
      (Metrics.degraded_events rv);
  if Metrics.corruptions_injected rv <> 0 then
    Printf.printf
      "  corruption: %d injected, %d detected, %d corrected, %d tiles \
       quarantined, %d silent\n"
      (Metrics.corruptions_injected rv)
      (Metrics.corruptions_detected rv)
      (Metrics.corruptions_corrected rv)
      (Metrics.quarantined_tiles rv)
      (Metrics.silent_corruptions rv);
  if Metrics.recoveries rv <> 0 then
    Printf.printf
      "  recovery: %d rollbacks, %d cycles replayed, %d faults masked, %d \
       sites quarantined\n"
      (Metrics.recoveries rv)
      (Metrics.replayed_cycles rv)
      (Metrics.get rv "recovery.masked_faults")
      (Metrics.get rv "recovery.quarantines");
  if show_stats then begin
    Format.printf "%a" Metrics.pp_result rv;
    Format.printf "%a" Vat_desim.Stats.pp rv.stats
  end

(* A .json suffix selects the Chrome trace_event format (load it in
   chrome://tracing or https://ui.perfetto.dev); anything else gets the
   plain-text utilization and hot-block report. *)
let export_trace path ~buckets trace (rv : Vm.result) =
  if Filename.check_suffix path ".json" then Vat_trace.Chrome.to_file path trace
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          (Vat_trace.Report.render ~buckets trace ~total_cycles:rv.Vm.cycles))
  end;
  Printf.printf "trace: %d records on %d tracks -> %s%s\n"
    (Vat_trace.Trace.length trace)
    (Vat_trace.Trace.n_tracks trace)
    path
    (if Vat_trace.Trace.dropped trace > 0 then
       Printf.sprintf " (%d oldest records overwritten)"
         (Vat_trace.Trace.dropped trace)
     else "")

(* Exit codes (documented in the README, pinned by test_cli):
   0 = simulation completed (whatever the guest's own exit code),
   2 = guest fault, 3 = halted at a checkpoint (--halt-at), 124 = usage
   error, 125 = internal error. *)
let outcome_code (rv : Vm.result) =
  match rv.outcome with Exec.Fault _ -> 2 | Exec.Exited _ | Exec.Out_of_fuel -> 0

let run_one ?trace_file ~trace_buckets ?checkpoint ~checkpoint_every ?halt_at
    cfg show_stats plan name load =
  let trace =
    match trace_file with
    | Some _ -> Vat_trace.Trace.create ()
    | None -> Vat_trace.Trace.disabled
  in
  let restore_from =
    match checkpoint with
    | Some file when Sys.file_exists file ->
      let s = Vat_snapshot.Snapshot.load file in
      Printf.printf "checkpoint: resuming %s from cycle %d (%s)\n" name
        (Vat_snapshot.Snapshot.cycle s)
        file;
      Some s
    | _ -> None
  in
  let checkpoint_every =
    match checkpoint with Some _ -> Some checkpoint_every | None -> None
  in
  match
    compute_one ~trace ?checkpoint_every ?restore_from ?halt_at cfg plan load
  with
  | (_, rv) as res ->
    print_one show_stats name res;
    (match trace_file with
     | Some path -> export_trace path ~buckets:trace_buckets trace rv
     | None -> ());
    (* A finished run's checkpoint is spent: leaving it around would make
       a re-run resume into the past instead of starting fresh. *)
    (match checkpoint with
     | Some file when Sys.file_exists file -> Sys.remove file
     | _ -> ());
    outcome_code rv
  | exception Halted_at_checkpoint s ->
    let file = match checkpoint with Some f -> f | None -> assert false in
    Vat_snapshot.Snapshot.save s file;
    Printf.printf "checkpoint: %s halted at cycle %d -> %s (resume by \
                   re-running with --checkpoint %s)\n"
      name
      (Vat_snapshot.Snapshot.cycle s)
      file file;
    3

let main list_benches bench base translators banks l15 no_spec no_opt no_chain
    morph show_stats faults fault_seed fault_kinds fault_unrecoverable
    checkpoint checkpoint_every halt_at trace_file trace_buckets jobs =
  if list_benches then begin
    List.iter
      (fun (b : Suite.benchmark) ->
        Printf.printf "%-14s %s\n" b.name b.description)
      Suite.all;
    `Ok 0
  end
  else if faults < 0 then `Error (false, "--faults must be non-negative")
  else if trace_buckets <= 0 then
    `Error (false, "--trace-buckets must be positive")
  else if checkpoint_every <= 0 then
    `Error (false, "--checkpoint-every must be positive")
  else if trace_file <> None && bench = None then
    `Error
      ( false,
        "--trace needs a single benchmark (a whole-suite run would \
         overwrite the trace file once per benchmark)" )
  else if checkpoint <> None && bench = None then
    `Error
      ( false,
        "--checkpoint needs a single benchmark (a whole-suite run would \
         overwrite the checkpoint file once per benchmark)" )
  else if halt_at <> None && checkpoint = None then
    `Error (false, "--halt-at needs --checkpoint to save the snapshot to")
  else
    match Faultspec.parse_classes fault_kinds with
    | Error msg -> `Error (false, msg)
    | Ok classes -> (
      match
        build_config base translators banks l15 no_spec no_opt no_chain morph
      with
      | exception Failure msg -> `Error (false, msg)
      | cfg -> (
        match Config.validate cfg with
        | Error msg -> `Error (false, "invalid configuration: " ^ msg)
        | Ok () -> (
          let plan =
            fault_plan cfg ~faults ~seed:fault_seed ~classes
              ~unrecoverable:fault_unrecoverable
          in
          match bench with
          | Some name -> (
            let bad_image msg =
              `Error (false, "bad guest image " ^ name ^ ": " ^ msg)
            in
            let run display load =
              match
                run_one ?trace_file ~trace_buckets ?checkpoint
                  ~checkpoint_every ?halt_at cfg show_stats plan display load
              with
              | code -> `Ok code
              (* A stale or foreign snapshot is a usage error, not a
                 crash: Snapshot.load raises Failure on a corrupt file and
                 Vm.run raises Invalid_argument on a fingerprint that does
                 not match this program + configuration + fault plan. So
                 is an image that does not fit guest memory. *)
              | exception Failure msg -> `Error (false, msg)
              | exception Invalid_argument msg -> `Error (false, msg)
              | exception Vat_guest.Image.Bad_image msg -> bad_image msg
            in
            match Suite.find name with
            | b -> run b.Suite.name (fun () -> Suite.load b)
            | exception Not_found -> (
              (* Not a suite benchmark: try it as a guest-image path. *)
              if not (Sys.file_exists name) then
                `Error
                  ( false,
                    "unknown benchmark " ^ name
                    ^ " (try --list, or pass a guest-image path)" )
              else
                match Vat_guest.Image.load name with
                | img ->
                  run (Filename.basename name) (fun () ->
                      Vat_guest.Image.to_program img)
                | exception Vat_guest.Image.Bad_image msg -> bad_image msg
                | exception Sys_error msg -> `Error (false, msg)))
          | None ->
            (* Whole-suite sweep: simulate in parallel, print in order. *)
            let benches = Array.of_list Suite.all in
            let results =
              Vat_desim.Pool.map ~jobs
                (fun (b : Suite.benchmark) ->
                  compute_one cfg plan (fun () -> Suite.load b))
                benches
            in
            Array.iteri
              (fun i r -> print_one show_stats benches.(i).Suite.name r)
              results;
            `Ok
              (Array.fold_left
                 (fun acc (_, rv) -> max acc (outcome_code rv))
                 0 results))))

let cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the benchmark suite.")
  in
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark to run (e.g. mcf or 181.mcf); all when omitted.")
  in
  let base =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"NAME"
          ~doc:"Base configuration: 1m9t (9 translators, 1 L2D bank) or 4m6t.")
  in
  let translators =
    Arg.(
      value
      & opt (some int) None
      & info [ "translators" ] ~docv:"N" ~doc:"Translator slave tiles (1-9).")
  in
  let banks =
    Arg.(
      value
      & opt (some int) None
      & info [ "banks" ] ~docv:"N" ~doc:"L2 data-cache bank tiles (1-4).")
  in
  let l15 =
    Arg.(
      value
      & opt (some int) None
      & info [ "l15" ] ~docv:"N" ~doc:"L1.5 code-cache banks (0-2).")
  in
  let no_spec =
    Arg.(
      value & flag
      & info [ "no-speculation" ]
          ~doc:"Conservative translator: translate only on demand.")
  in
  let no_opt =
    Arg.(value & flag & info [ "no-opt" ] ~doc:"Disable the block optimizer.")
  in
  let no_chain =
    Arg.(value & flag & info [ "no-chain" ] ~doc:"Disable branch chaining.")
  in
  let morph =
    Arg.(
      value
      & opt (some int) None
      & info [ "morph" ] ~docv:"THRESHOLD"
          ~doc:"Enable dynamic reconfiguration with this queue threshold.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print detailed statistics.")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"N"
          ~doc:
            "Inject N random recoverable tile faults (fail-stops, request \
             drops, slow tiles) from a seeded deterministic plan.")
  in
  let fault_seed =
    Arg.(
      value & opt int 2026
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed for the fault plan; same seed replays the same faults.")
  in
  let fault_kinds =
    Arg.(
      value & opt string "legacy"
      & info [ "fault-kinds" ] ~docv:"CLASSES"
          ~doc:
            "Fault classes --faults draws from: a comma-separated subset of \
             fail-stop, drop, slow, corrupt-payload, corrupt-storage, \
             duplicate; or a preset: legacy (the first three, the default), \
             corruption (the last three), all.")
  in
  let fault_unrecoverable =
    Arg.(
      value & flag
      & info [ "fault-unrecoverable" ]
          ~doc:
            "Let --faults also draw previously-terminal faults (execution, \
             manager and MMU tile fail-stops, dirty-L2D storage loss). \
             Without --checkpoint such a fault aborts the run; with it, the \
             run rolls back to the last checkpoint, quarantines the failed \
             site, and continues.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the run every --checkpoint-every cycles and arm \
             rollback-recovery. If $(docv) exists it is loaded and the run \
             resumes from it (the snapshot fingerprint must match the \
             program, configuration, and fault plan); on completion the \
             file is removed. Single-benchmark runs only.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 100_000
      & info [ "checkpoint-every" ] ~docv:"CYCLES"
          ~doc:"Cycles between checkpoints (default 100000).")
  in
  let halt_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-at" ] ~docv:"CYCLE"
          ~doc:
            "Stop at the first checkpoint at or after $(docv) simulated \
             cycles, save it to the --checkpoint file, and exit with code \
             3. Re-running the same command resumes from it.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a time-resolved event trace of the run and write it to \
             $(docv): per-tile service spans, code-cache events, sampled \
             queue depths, morph decisions, and fault recoveries. A .json \
             suffix writes Chrome trace_event format (open in \
             chrome://tracing or Perfetto); any other name writes a \
             plain-text utilization and hot-block report. Tracing never \
             changes simulated timing. Single-benchmark runs only.")
  in
  let trace_buckets =
    Arg.(
      value & opt int 20
      & info [ "trace-buckets" ] ~docv:"N"
          ~doc:
            "Time buckets in the plain-text trace report's utilization \
             table (default 20). Ignored for .json traces.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Vat_desim.Pool.cpu_count ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for whole-suite runs (default: CPU count; 1 = \
             sequential). Results are identical for any value.")
  in
  let term =
    Term.(
      ret
        (const main $ list_flag $ bench $ base $ translators $ banks $ l15
        $ no_spec $ no_opt $ no_chain $ morph $ stats $ faults $ fault_seed
        $ fault_kinds $ fault_unrecoverable $ checkpoint $ checkpoint_every
        $ halt_at $ trace_file $ trace_buckets $ jobs))
  in
  Cmd.v
    (Cmd.info "vat_run" ~version:"1.0"
       ~doc:
         "Run SpecInt-surrogate benchmarks on the virtual architecture \
          (parallel dynamic binary translation on a tiled processor)")
    term

(* Any stray exception (unreadable file, corrupt image, internal limit)
   becomes a one-line diagnostic and exit 125, never a backtrace. Usage
   and argument errors exit 124 (cmdliner's convention); simulation exit
   codes (0 / 2 / 3) come from [main]. *)
let () =
  match Cmd.eval_value ~catch:false cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error _ -> exit 124
  | exception Failure msg ->
    Printf.eprintf "vat_run: %s\n" msg;
    exit 125
  | exception Sys_error msg ->
    Printf.eprintf "vat_run: %s\n" msg;
    exit 125
  | exception Invalid_argument msg ->
    Printf.eprintf "vat_run: %s\n" msg;
    exit 125

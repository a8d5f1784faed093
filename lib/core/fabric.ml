open Vat_desim

type policy =
  | Static of int * int
  | Shared of { dwell : int }

let shared_translators = 6

type guest_result = {
  outcome : Exec.outcome;
  cycles : int;
  guest_insns : int;
}

type result = {
  a : guest_result;
  b : guest_result;
  makespan : int;
  trades : int;
  stats : Stats.t;
}

(* Per-guest configuration inside a shared fabric: no L1.5 (those tiles
   belong to the guests' fixed complexes), one L2D bank, [translators]
   slave tiles. *)
let guest_cfg translators =
  { Config.default with
    n_translators = max 1 translators;
    n_l2d_banks = 1;
    n_l15_banks = 0 }

let run ?(fuel = 50_000_000) ?(max_cycles = 2_000_000_000) ~policy
    (prog_a, name_a) (prog_b, name_b) =
  let q = Event_queue.create () in
  let stats = Stats.create () in
  let split_a, split_b =
    match policy with
    | Static (a, b) ->
      if a + b > shared_translators || a < 1 || b < 1 then
        invalid_arg "Fabric.run: bad static split";
      (a, b)
    | Shared _ -> (shared_translators / 2, shared_translators - (shared_translators / 2))
  in
  let inst_a = Vm.create q stats (guest_cfg split_a) prog_a in
  let inst_b = Vm.create q stats (guest_cfg split_b) prog_b in
  let done_a = ref None and done_b = ref None in
  let trades = ref 0 in
  (* The fabric controller: rebalance the shared translator pool. *)
  (match policy with
   | Static _ -> ()
   | Shared { dwell } ->
     let last_trade = ref 0 in
     let current_a = ref split_a in
     let desired () =
       match (!done_a, !done_b) with
       | Some _, None -> 1 (* keep a token slave; B gets the rest *)
       | None, Some _ -> shared_translators - 1
       | Some _, Some _ -> !current_a
       | None, None ->
         let qa = Manager.queue_length (Vm.manager_of inst_a) in
         let qb = Manager.queue_length (Vm.manager_of inst_b) in
         if qa = qb then !current_a
         else
           (* Proportional split, clamped so both keep at least one. Queue
              lengths differ, so their sum is positive. *)
           max 1
             (min (shared_translators - 1)
                (int_of_float
                   (Float.round
                      (float_of_int (shared_translators * qa)
                       /. float_of_int (qa + qb)))))
     in
     let rec sample () =
       (if Event_queue.now q - !last_trade >= dwell then begin
          let want_a = desired () in
          if want_a <> !current_a then begin
            incr trades;
            Stats.incr stats "fabric.trades";
            last_trade := Event_queue.now q;
            current_a := want_a;
            Manager.set_active_slaves (Vm.manager_of inst_a) want_a
              ~on_done:(fun () -> ());
            Manager.set_active_slaves (Vm.manager_of inst_b)
              (shared_translators - want_a)
              ~on_done:(fun () -> ())
          end
        end);
       if !done_a = None || !done_b = None then
         Event_queue.after q ~delay:Config.sample_interval sample
     in
     Event_queue.after q ~delay:Config.sample_interval sample);
  Vm.start inst_a ~fuel ~on_finish:(fun o ->
      done_a := Some (o, Event_queue.now q);
      Stats.add stats ("fabric.finish." ^ name_a) (Event_queue.now q));
  Vm.start inst_b ~fuel ~on_finish:(fun o ->
      done_b := Some (o, Event_queue.now q);
      Stats.add stats ("fabric.finish." ^ name_b) (Event_queue.now q));
  (match
     Event_queue.drive q ~max_cycles ~finished:(fun () ->
         Option.is_some !done_a && Option.is_some !done_b)
   with
   | Finished -> ()
   | Cycle_limit -> failwith "fabric cycle limit"
   | Deadlock -> failwith "fabric deadlock");
  let finish inst d =
    let outcome, cycles = Option.get !d in
    { outcome; cycles; guest_insns = Exec.guest_instructions (Vm.exec_of inst) }
  in
  let ra = finish inst_a done_a and rb = finish inst_b done_b in
  { a = ra;
    b = rb;
    makespan = max ra.cycles rb.cycles;
    trades = !trades;
    stats }

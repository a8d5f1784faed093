(* vat_asm: the guest toolchain.

     vat_asm build prog.s -o prog.vbin     assemble to a VAT0 image
     vat_asm dis prog.vbin                 disassemble an image
     vat_asm run prog.s [--vm] [--stats]   assemble and execute
       (interpreter by default; --vm runs the full virtual architecture) *)

open Cmdliner
open Vat_guest

let parse_or_die path =
  match Text_asm.parse_file path with
  | Ok items -> items
  | Error errors ->
    List.iter
      (fun e -> Format.eprintf "%s: %a@." path Text_asm.pp_error e)
      errors;
    exit 1

let origin = Program.default_origin

let build_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC.s") in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output image path.")
  in
  let run src out =
    let items = parse_or_die src in
    let image = Image.of_asm ~origin items in
    let out = Option.value out ~default:(Filename.remove_extension src ^ ".vbin") in
    Image.save out image;
    Printf.printf "%s: %d bytes, origin 0x%x, entry 0x%x\n" out
      (String.length image.image) image.origin image.entry
  in
  Cmd.v (Cmd.info "build" ~doc:"Assemble a source file to a VAT0 image")
    Term.(const run $ src $ out)

let dis_cmd =
  let img = Arg.(required & pos 0 (some file) None & info [] ~docv:"IMG") in
  let run img =
    let image = Image.load img in
    Printf.printf "origin 0x%x, entry 0x%x, %d bytes\n" image.origin
      image.entry (String.length image.image);
    List.iter
      (fun (addr, text) -> Printf.printf "  0x%06x: %s\n" addr text)
      (Image.disassemble image)
  in
  Cmd.v (Cmd.info "dis" ~doc:"Disassemble a VAT0 image") Term.(const run $ img)

let run_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC") in
  let vm =
    Arg.(
      value & flag
      & info [ "vm" ]
          ~doc:"Execute on the full virtual architecture (default: reference \
                interpreter).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics.") in
  let input =
    Arg.(
      value & opt string ""
      & info [ "input" ] ~docv:"STR" ~doc:"Guest standard input.")
  in
  let run src vm stats input =
    let image =
      if Filename.check_suffix src ".vbin" then Image.load src
      else Image.of_asm ~origin (parse_or_die src)
    in
    let prog = Image.to_program image in
    if vm then begin
      let rv = Vat_core.Vm.run ~input ~fuel:100_000_000 Vat_core.Config.default prog in
      (match rv.outcome with
       | Vat_core.Exec.Exited n ->
         Printf.printf "exit %d after %d guest instructions, %d cycles\n" n
           rv.guest_insns rv.cycles
       | Vat_core.Exec.Fault m -> Printf.printf "fault: %s\n" m
       | Vat_core.Exec.Out_of_fuel -> print_endline "out of fuel");
      if rv.output <> "" then Printf.printf "--- output ---\n%s\n" rv.output;
      if stats then Format.printf "%a" Vat_core.Metrics.pp_result rv
    end
    else begin
      let t = Interp.create ~input prog in
      (match Interp.run ~fuel:100_000_000 t with
       | Interp.Exited n ->
         Printf.printf "exit %d after %d instructions\n" n (Interp.instret t)
       | Interp.Fault m -> Printf.printf "fault: %s\n" m
       | Interp.Out_of_fuel -> print_endline "out of fuel");
      if Interp.output t <> "" then
        Printf.printf "--- output ---\n%s\n" (Interp.output t)
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble (or load) and execute a guest program")
    Term.(const run $ src $ vm $ stats $ input)

(* Any stray exception (unreadable file, corrupt image, write failure)
   becomes a one-line diagnostic, never a backtrace. *)
let () =
  let group =
    Cmd.group
      (Cmd.info "vat_asm" ~version:"1.0"
         ~doc:"G86 assembler, disassembler, and runner")
      [ build_cmd; dis_cmd; run_cmd ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Failure msg ->
    Printf.eprintf "vat_asm: %s\n" msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "vat_asm: %s\n" msg;
    exit 1
  | exception Invalid_argument msg ->
    Printf.eprintf "vat_asm: %s\n" msg;
    exit 1
  | exception Image.Bad_image msg ->
    Printf.eprintf "vat_asm: %s\n" msg;
    exit 1

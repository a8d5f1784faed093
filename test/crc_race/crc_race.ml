(* Two domains make the process's first calls to [Snapshot.crc32] at the
   same moment. While the CRC table was a [lazy], the second domain to
   force it raised [CamlinternalLazy.Undefined] in most runs. Both calls
   must return the standard CRC-32 check value. *)

let check = 0xCBF43926

let () =
  let arrived = Atomic.make 0 in
  let crc () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Vat_snapshot.Snapshot.crc32 "123456789"
  in
  let a = Domain.spawn crc and b = Domain.spawn crc in
  let ra = Domain.join a and rb = Domain.join b in
  if ra <> check || rb <> check then begin
    Printf.eprintf "crc32 \"123456789\": 0x%08X and 0x%08X, want 0x%08X\n" ra
      rb check;
    exit 1
  end

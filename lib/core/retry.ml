open Vat_desim

type ('o, 'r) t = {
  send : 'o -> 'r -> unit;
  pending : 'o -> 'r -> bool;
  expire : 'o -> 'r -> bool -> unit;
  give_up : 'o -> 'r -> unit;
}

let rec attempt p q o r retries deadline =
  p.send o r;
  Event_queue.after q ~delay:deadline (fun () ->
      if p.pending o r then begin
        let resend = retries < Config.max_retries in
        p.expire o r resend;
        if resend then
          attempt p q o r (retries + 1) (deadline * Config.backoff_mult)
        else p.give_up o r
      end)

let start p q o r ~deadline = attempt p q o r 0 deadline

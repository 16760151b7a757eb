let map ~domains n f =
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let rec work worker =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      slots.(i) <- Some (f ~worker i);
      work worker
    end
  in
  (* A failure stops the other workers at their next claim. *)
  let guarded body () =
    match body () with
    | () -> None
    | exception e ->
        Atomic.set next n;
        Some (e, Printexc.get_raw_backtrace ())
  in
  let spawned = ref [] in
  let own =
    guarded
      (fun () ->
        for w = 1 to min domains n - 1 do
          spawned := Domain.spawn (guarded (fun () -> work w)) :: !spawned
        done;
        work 0)
      ()
  in
  (* [Domain.join] also publishes the spawned workers' slot writes. *)
  let failures = own :: List.rev_map Domain.join !spawned in
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (List.find_map Fun.id failures);
  Array.map Option.get slots

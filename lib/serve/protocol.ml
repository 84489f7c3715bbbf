open Hr_core
module Check = Hr_check
module Budget = Hr_util.Budget

type parsed =
  | Request of Batch.request
  | Malformed of { id : string; error : string }

let parse_line ?max_table_bytes ?cache_dir ~fallback_id line =
  match Telemetry.json_of_string line with
  | Error e -> Malformed { id = fallback_id; error = e }
  | Ok json ->
      let id, deadline_ms, case_json =
        match json with
        | Telemetry.Obj fields when List.mem_assoc "case" fields ->
            let id =
              match List.assoc_opt "id" fields with
              | Some (Telemetry.String s) -> s
              | Some (Telemetry.Int i) -> string_of_int i
              | _ -> fallback_id
            in
            let deadline_ms =
              match List.assoc_opt "deadline_ms" fields with
              | Some (Telemetry.Int ms) when ms >= 0 -> Some ms
              | _ -> None
            in
            (id, deadline_ms, List.assoc "case" fields)
        | _ -> (fallback_id, None, json)
      in
      (match Check.Case.of_json case_json with
      | Error e -> Malformed { id; error = e }
      | Ok case ->
          (* The digest of the canonical case JSON is the in-process
             dedup key — the same structural-hash scheme the disk cache
             uses, over the whole problem identity (oracle inputs plus
             params/mode/class, which change the Problem even when the
             tables agree).  Identical instances share one build across
             every batch of the process.

             The per-request budget starts ticking here, as the line is
             read: the wait for admission and in the queue counts
             against a request's own deadline. *)
          Request
            (Batch.request
               ~key:(Digest.to_hex (Digest.string (Check.Case.to_string case)))
               ?budget:(Option.map Budget.of_deadline_ms deadline_ms)
               ~id (fun () -> Check.Case.problem ?max_table_bytes ?cache_dir case)))

let response_line ?timing r =
  Telemetry.json_to_string (Batch.response_to_json ?timing r)

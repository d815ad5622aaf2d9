type 'a record = { value : 'a; mutable children : (int list * 'a record) list }

type 'a t = { root : 'a record; mutable records : int }

let create v = { root = { value = v; children = [] }; records = 1 }

let root t = t.root

let value r = r.value

let rec find successes = function
  | [] -> None
  | (key, r) :: rest ->
    if List.equal Int.equal key successes then Some r else find successes rest

let child t r ~successes next =
  match find successes r.children with
  | Some c -> c
  | None ->
    let c = { value = next r.value; children = [] } in
    r.children <- (successes, c) :: r.children;
    t.records <- t.records + 1;
    c

let records t = t.records

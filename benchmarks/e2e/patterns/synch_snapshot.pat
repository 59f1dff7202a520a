Synch    := ['', Synch_Request, $r];
Snapshot := [$l, Take_Snapshot, $r];
pattern := Synch -> Snapshot;

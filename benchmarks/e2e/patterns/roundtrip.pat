Synch    := [$f, Synch_Request, $r];
Snapshot := [$l, Take_Snapshot, $r];
Forward  := [$l, Forward_Snapshot, $r];
Apply    := [$f, Apply_Snapshot, $r];
pattern := Synch -> Snapshot -> Forward -> Apply;

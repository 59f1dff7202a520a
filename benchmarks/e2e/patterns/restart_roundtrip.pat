Restart := [$f, Restart, ''];
Synch   := [$f, Synch_Request, $r];
Apply   := [$f, Apply_Snapshot, $r];
pattern := Restart -> Synch -> Apply;

Forward := ['', Forward_Snapshot, $r];
Apply   := ['', Apply_Snapshot, $r];
pattern := Forward -> Apply;

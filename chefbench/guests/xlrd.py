
def check_magic(data):
    if len(data) < 2:
        raise XLRDError
    if data[0] == "P" and data[1] == "K":
        raise BadZipfile
    if data[0] != "X":
        raise XLRDError
    return 1

def read_record(data, i, rows):
    n = len(data)
    t = data[i]
    if i + 1 >= n:
        raise error
    ln = ord(data[i + 1]) - 48
    if ln < 0:
        raise error
    if ln > 9:
        raise error
    if i + 2 + ln > n:
        raise error
    if t == "S":
        j = 0
        while j < ln:
            ch = ord(data[i + 2 + j])
            if ch < 32:
                raise AssertionError
            j = j + 1
    if t == "N":
        if ln == 0:
            raise XLRDError
        val = int(data[i + 2:i + 2 + ln])
    if t == "R":
        if ln < 1:
            raise error
        idx = ord(data[i + 2]) - 48
        rows[idx] = 1
    return i + 2 + ln

def open_workbook(data):
    check_magic(data)
    rows = [0, 0, 0, 0]
    i = 1
    n = len(data)
    count = 0
    while i < n:
        i = read_record(data, i, rows)
        count = count + 1
        if count > 8:
            raise XLRDError
    return count

"""Word and phrase lexicons for the synthetic web.

Each studied language gets a small lexicon written in its native script:
content words (used to build visible paragraphs and headings), UI terms
(used for buttons, links and labels), and descriptive phrases (used for
informative image alt text).  English gets a larger lexicon plus the
boilerplate categories needed to generate *uninformative* accessibility text
(placeholders, developer labels, file names, generic actions, ordinal
phrases) that the paper's filtering pipeline must catch.

The words are real words of the respective languages (spot-checkable), but
the generated sentences are word salads — grammaticality is irrelevant to the
measurement pipeline, which only looks at scripts, lengths and word counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Lexicon:
    """Vocabulary of one language used by the page generator.

    Attributes:
        language_code: The language this lexicon belongs to.
        words: Content words (nouns/adjectives) in the native script.
        ui_terms: Short UI strings (menu items, button captions).
        phrases: Longer descriptive phrases suitable for alt text and titles.
        generic_actions: Native translations of generic UI actions ("close",
            "search"), which the filtering pipeline discards when they appear
            alone.
        placeholders: Native translations of generic placeholders ("image",
            "icon", "button").
        space_separated: Whether words are joined with spaces (False for CJK
            and Thai-style scripts).
    """

    language_code: str
    words: tuple[str, ...]
    ui_terms: tuple[str, ...]
    phrases: tuple[str, ...]
    generic_actions: tuple[str, ...] = ()
    placeholders: tuple[str, ...] = ()
    space_separated: bool = True

    def word(self, rng: random.Random) -> str:
        return rng.choice(self.words)

    def ui_term(self, rng: random.Random) -> str:
        return rng.choice(self.ui_terms)

    def phrase(self, rng: random.Random) -> str:
        return rng.choice(self.phrases)

    def sentence(self, rng: random.Random, min_words: int = 4, max_words: int = 12) -> str:
        """A pseudo-sentence of random content words."""
        count = rng.randint(min_words, max_words)
        choice, words = rng.choice, self.words
        joiner = " " if self.space_separated else ""
        return joiner.join([choice(words) for _ in range(count)])

    def paragraph(self, rng: random.Random, min_sentences: int = 2, max_sentences: int = 5) -> str:
        count = rng.randint(min_sentences, max_sentences)
        separator = " " if self.space_separated else ""
        if self.space_separated:
            return " ".join(self.sentence(rng) + "." for _ in range(count))
        return separator.join(self.sentence(rng) + "。" for _ in range(count))


HINDI = Lexicon(
    language_code="hi",
    words=(
        "समाचार", "सरकार", "शिक्षा", "विद्यालय", "पुस्तक", "जानकारी", "सेवा", "योजना",
        "भारत", "राज्य", "जिला", "आवेदन", "प्रमाणपत्र", "परीक्षा", "परिणाम", "छात्र",
        "स्वास्थ्य", "अस्पताल", "किसान", "बाजार", "मूल्य", "रोजगार", "समय", "आज",
        "नवीनतम", "मुख्य", "विभाग", "मंत्रालय", "अधिकारी", "सूचना", "रिपोर्ट", "खबर",
        "क्रिकेट", "खेल", "मनोरंजन", "फिल्म", "संगीत", "मौसम", "तापमान", "वर्षा",
    ),
    ui_terms=(
        "मुखपृष्ठ", "संपर्क करें", "हमारे बारे में", "खोजें", "लॉगिन", "पंजीकरण",
        "और पढ़ें", "डाउनलोड", "सबमिट करें", "अगला", "पिछला", "सहायता",
    ),
    phrases=(
        "मुख्यमंत्री ने नई योजना की घोषणा की",
        "विद्यालय के छात्रों का वार्षिक समारोह",
        "किसानों के लिए नई कृषि योजना की जानकारी",
        "अस्पताल में मरीजों की जांच करते डॉक्टर",
        "बाजार में सब्जियों की ताजा कीमतें",
        "परीक्षा परिणाम की घोषणा करते अधिकारी",
    ),
    generic_actions=("खोजें", "बंद करें", "भेजें"),
    placeholders=("चित्र", "बटन", "छवि"),
)

BANGLA = Lexicon(
    language_code="bn",
    words=(
        "সংবাদ", "সরকার", "শিক্ষা", "বিদ্যালয়", "বই", "তথ্য", "সেবা", "প্রকল্প",
        "বাংলাদেশ", "জেলা", "উপজেলা", "আবেদন", "সনদ", "পরীক্ষা", "ফলাফল", "শিক্ষার্থী",
        "স্বাস্থ্য", "হাসপাতাল", "কৃষক", "বাজার", "দাম", "চাকরি", "সময়", "আজ",
        "সর্বশেষ", "প্রধান", "অধিদপ্তর", "মন্ত্রণালয়", "কর্মকর্তা", "বিজ্ঞপ্তি", "প্রতিবেদন", "খবর",
        "ক্রিকেট", "খেলা", "বিনোদন", "চলচ্চিত্র", "সংগীত", "আবহাওয়া", "তাপমাত্রা", "বৃষ্টি",
    ),
    ui_terms=(
        "প্রচ্ছদ", "যোগাযোগ", "আমাদের সম্পর্কে", "অনুসন্ধান", "লগইন", "নিবন্ধন",
        "আরও পড়ুন", "ডাউনলোড", "জমা দিন", "পরবর্তী", "পূর্ববর্তী", "সাহায্য",
    ),
    phrases=(
        "প্রধানমন্ত্রী নতুন প্রকল্পের উদ্বোধন করেছেন",
        "বিদ্যালয়ের শিক্ষার্থীদের বার্ষিক ক্রীড়া প্রতিযোগিতা",
        "কৃষকদের জন্য নতুন কৃষি প্রণোদনার ঘোষণা",
        "হাসপাতালে রোগীদের চিকিৎসা দিচ্ছেন চিকিৎসকরা",
        "বাজারে সবজির সর্বশেষ দামের তালিকা",
        "পরীক্ষার ফলাফল প্রকাশ করছেন কর্মকর্তারা",
    ),
    generic_actions=("অনুসন্ধান", "বন্ধ করুন", "পাঠান"),
    placeholders=("ছবি", "বোতাম", "আইকন"),
)

ARABIC = Lexicon(
    language_code="ar",
    words=(
        "أخبار", "حكومة", "تعليم", "مدرسة", "كتاب", "معلومات", "خدمة", "مشروع",
        "الجزائر", "ولاية", "بلدية", "طلب", "شهادة", "امتحان", "نتيجة", "طالب",
        "صحة", "مستشفى", "فلاح", "سوق", "سعر", "عمل", "وقت", "اليوم",
        "أحدث", "رئيسي", "مديرية", "وزارة", "مسؤول", "إعلان", "تقرير", "خبر",
        "رياضة", "كرة", "ترفيه", "فيلم", "موسيقى", "طقس", "حرارة", "مطر",
    ),
    ui_terms=(
        "الرئيسية", "اتصل بنا", "من نحن", "بحث", "تسجيل الدخول", "تسجيل",
        "اقرأ المزيد", "تحميل", "إرسال", "التالي", "السابق", "مساعدة",
    ),
    phrases=(
        "الوزير يعلن عن مشروع جديد للتنمية",
        "طلاب المدرسة في الاحتفال السنوي",
        "معلومات حول برنامج الدعم الفلاحي الجديد",
        "الأطباء يفحصون المرضى في المستشفى",
        "أسعار الخضروات في السوق المركزي",
        "إعلان نتائج الامتحانات الرسمية",
    ),
    generic_actions=("بحث", "إغلاق", "إرسال"),
    placeholders=("صورة", "زر", "أيقونة"),
)

# Egyptian Arabic shares the Arabic script; a few dialect-flavoured items are
# included so the two lexicons are not byte-identical.
EGYPTIAN_ARABIC = Lexicon(
    language_code="arz",
    words=ARABIC.words + ("مصر", "القاهرة", "النهاردة", "شغل", "عربية", "فلوس"),
    ui_terms=ARABIC.ui_terms,
    phrases=ARABIC.phrases + (
        "أسعار العملات في البنوك المصرية النهاردة",
        "أخبار الدوري المصري الممتاز اليوم",
    ),
    generic_actions=ARABIC.generic_actions,
    placeholders=ARABIC.placeholders,
)

RUSSIAN = Lexicon(
    language_code="ru",
    words=(
        "новости", "правительство", "образование", "школа", "книга", "информация", "услуга", "проект",
        "Россия", "область", "район", "заявление", "справка", "экзамен", "результат", "студент",
        "здоровье", "больница", "фермер", "рынок", "цена", "работа", "время", "сегодня",
        "последние", "главный", "управление", "министерство", "чиновник", "объявление", "отчет", "статья",
        "футбол", "спорт", "развлечения", "фильм", "музыка", "погода", "температура", "дождь",
    ),
    ui_terms=(
        "главная", "контакты", "о нас", "поиск", "войти", "регистрация",
        "читать далее", "скачать", "отправить", "далее", "назад", "помощь",
    ),
    phrases=(
        "министр объявил о запуске нового проекта",
        "школьники на ежегодном спортивном празднике",
        "информация о новой программе поддержки фермеров",
        "врачи осматривают пациентов в больнице",
        "актуальные цены на овощи на центральном рынке",
        "официальное объявление результатов экзаменов",
    ),
    generic_actions=("поиск", "закрыть", "отправить"),
    placeholders=("изображение", "кнопка", "значок"),
)

JAPANESE = Lexicon(
    language_code="ja",
    words=(
        "ニュース", "政府", "教育", "学校", "本", "情報", "サービス", "計画",
        "日本", "東京", "地域", "申請", "証明書", "試験", "結果", "学生",
        "健康", "病院", "農家", "市場", "価格", "仕事", "時間", "今日",
        "最新", "主要", "部門", "省庁", "担当者", "お知らせ", "報告", "記事",
        "野球", "スポーツ", "娯楽", "映画", "音楽", "天気", "気温", "雨",
        "会社", "製品", "くわしく", "みなさま", "ありがとう", "ください",
    ),
    ui_terms=(
        "ホーム", "お問い合わせ", "会社概要", "検索", "ログイン", "新規登録",
        "続きを読む", "ダウンロード", "送信", "次へ", "前へ", "ヘルプ",
    ),
    phrases=(
        "大臣が新しい支援計画を発表しました",
        "学校の生徒たちによる毎年恒例の運動会",
        "農家向けの新しい補助金制度のご案内",
        "病院で患者を診察する医師たち",
        "中央市場における野菜の最新価格",
        "試験結果の公式発表が行われました",
    ),
    generic_actions=("検索", "閉じる", "送信"),
    placeholders=("画像", "ボタン", "アイコン"),
    space_separated=False,
)

MANDARIN = Lexicon(
    language_code="zh",
    words=(
        "新闻", "政府", "教育", "学校", "图书", "信息", "服务", "项目",
        "中国", "省份", "地区", "申请", "证书", "考试", "结果", "学生",
        "健康", "医院", "农民", "市场", "价格", "工作", "时间", "今天",
        "最新", "主要", "部门", "部委", "官员", "公告", "报告", "文章",
        "足球", "体育", "娱乐", "电影", "音乐", "天气", "气温", "降雨",
        "企业", "产品", "详情", "用户", "欢迎", "注册",
    ),
    ui_terms=(
        "首页", "联系我们", "关于我们", "搜索", "登录", "注册",
        "阅读更多", "下载", "提交", "下一页", "上一页", "帮助",
    ),
    phrases=(
        "部长宣布启动新的发展项目",
        "学校学生参加一年一度的运动会",
        "关于新农业补贴政策的详细信息",
        "医生在医院为患者进行检查",
        "中央市场蔬菜的最新价格信息",
        "官方公布考试成绩的通知",
    ),
    generic_actions=("搜索", "关闭", "提交"),
    placeholders=("图像", "按钮", "图标"),
    space_separated=False,
)

CANTONESE = Lexicon(
    language_code="yue",
    words=(
        "新聞", "政府", "教育", "學校", "圖書", "資訊", "服務", "項目",
        "香港", "地區", "申請", "證書", "考試", "結果", "學生", "市民",
        "健康", "醫院", "市場", "價格", "工作", "時間", "今日", "最新",
        "主要", "部門", "官員", "公告", "報告", "文章", "足球", "體育",
        "娛樂", "電影", "音樂", "天氣", "氣溫", "落雨", "企業", "產品",
    ),
    ui_terms=(
        "主頁", "聯絡我們", "關於我們", "搜尋", "登入", "註冊",
        "閱讀更多", "下載", "提交", "下一頁", "上一頁", "幫助",
    ),
    phrases=(
        "政府宣布推出全新資助計劃",
        "學校學生參加一年一度嘅運動會",
        "關於新住屋政策嘅詳細資料",
        "醫生喺醫院為病人做檢查",
        "街市蔬菜嘅最新價格資訊",
        "考試成績正式公布嘅通知",
    ),
    generic_actions=("搜尋", "關閉", "提交"),
    placeholders=("圖像", "按鈕", "圖示"),
    space_separated=False,
)

KOREAN = Lexicon(
    language_code="ko",
    words=(
        "뉴스", "정부", "교육", "학교", "도서", "정보", "서비스", "사업",
        "한국", "지역", "신청", "증명서", "시험", "결과", "학생", "시민",
        "건강", "병원", "농민", "시장", "가격", "일자리", "시간", "오늘",
        "최신", "주요", "부서", "부처", "담당자", "공지", "보고서", "기사",
        "축구", "스포츠", "연예", "영화", "음악", "날씨", "기온", "비",
    ),
    ui_terms=(
        "홈", "문의하기", "회사소개", "검색", "로그인", "회원가입",
        "더 보기", "다운로드", "제출", "다음", "이전", "도움말",
    ),
    phrases=(
        "장관이 새로운 지원 사업을 발표했습니다",
        "학교 학생들의 연례 체육대회 모습",
        "농민을 위한 새로운 보조금 제도 안내",
        "병원에서 환자를 진료하는 의사들",
        "중앙시장 채소의 최신 가격 정보",
        "시험 결과 공식 발표 안내문",
    ),
    generic_actions=("검색", "닫기", "보내기"),
    placeholders=("이미지", "버튼", "아이콘"),
)

THAI = Lexicon(
    language_code="th",
    words=(
        "ข่าว", "รัฐบาล", "การศึกษา", "โรงเรียน", "หนังสือ", "ข้อมูล", "บริการ", "โครงการ",
        "ประเทศไทย", "จังหวัด", "อำเภอ", "คำขอ", "ใบรับรอง", "การสอบ", "ผลลัพธ์", "นักเรียน",
        "สุขภาพ", "โรงพยาบาล", "เกษตรกร", "ตลาด", "ราคา", "งาน", "เวลา", "วันนี้",
        "ล่าสุด", "หลัก", "กรม", "กระทรวง", "เจ้าหน้าที่", "ประกาศ", "รายงาน", "บทความ",
        "ฟุตบอล", "กีฬา", "บันเทิง", "ภาพยนตร์", "ดนตรี", "อากาศ", "อุณหภูมิ", "ฝน",
    ),
    ui_terms=(
        "หน้าแรก", "ติดต่อเรา", "เกี่ยวกับเรา", "ค้นหา", "เข้าสู่ระบบ", "สมัครสมาชิก",
        "อ่านต่อ", "ดาวน์โหลด", "ส่ง", "ถัดไป", "ก่อนหน้า", "ช่วยเหลือ",
    ),
    phrases=(
        "รัฐมนตรีประกาศโครงการพัฒนาใหม่",
        "นักเรียนในงานกีฬาสีประจำปีของโรงเรียน",
        "ข้อมูลเกี่ยวกับโครงการช่วยเหลือเกษตรกรรอบใหม่",
        "แพทย์กำลังตรวจผู้ป่วยในโรงพยาบาล",
        "ราคาผักล่าสุดในตลาดกลาง",
        "ประกาศผลการสอบอย่างเป็นทางการ",
    ),
    generic_actions=("ค้นหา", "ปิด", "ส่ง"),
    placeholders=("รูปภาพ", "ปุ่ม", "ไอคอน"),
    space_separated=False,
)

GREEK = Lexicon(
    language_code="el",
    words=(
        "ειδήσεις", "κυβέρνηση", "εκπαίδευση", "σχολείο", "βιβλίο", "πληροφορίες", "υπηρεσία", "έργο",
        "Ελλάδα", "περιφέρεια", "δήμος", "αίτηση", "πιστοποιητικό", "εξετάσεις", "αποτέλεσμα", "μαθητής",
        "υγεία", "νοσοκομείο", "αγρότης", "αγορά", "τιμή", "εργασία", "χρόνος", "σήμερα",
        "τελευταία", "κύριο", "διεύθυνση", "υπουργείο", "υπάλληλος", "ανακοίνωση", "αναφορά", "άρθρο",
        "ποδόσφαιρο", "αθλητισμός", "ψυχαγωγία", "ταινία", "μουσική", "καιρός", "θερμοκρασία", "βροχή",
    ),
    ui_terms=(
        "αρχική", "επικοινωνία", "σχετικά με εμάς", "αναζήτηση", "σύνδεση", "εγγραφή",
        "διαβάστε περισσότερα", "λήψη", "υποβολή", "επόμενο", "προηγούμενο", "βοήθεια",
    ),
    phrases=(
        "ο υπουργός ανακοίνωσε νέο αναπτυξιακό πρόγραμμα",
        "μαθητές του σχολείου στην ετήσια γιορτή",
        "πληροφορίες για το νέο πρόγραμμα στήριξης αγροτών",
        "γιατροί εξετάζουν ασθενείς στο νοσοκομείο",
        "οι τελευταίες τιμές λαχανικών στην κεντρική αγορά",
        "επίσημη ανακοίνωση αποτελεσμάτων εξετάσεων",
    ),
    generic_actions=("αναζήτηση", "κλείσιμο", "αποστολή"),
    placeholders=("εικόνα", "κουμπί", "εικονίδιο"),
)

HEBREW = Lexicon(
    language_code="he",
    words=(
        "חדשות", "ממשלה", "חינוך", "בית ספר", "ספר", "מידע", "שירות", "פרויקט",
        "ישראל", "מחוז", "עירייה", "בקשה", "תעודה", "בחינה", "תוצאה", "תלמיד",
        "בריאות", "בית חולים", "חקלאי", "שוק", "מחיר", "עבודה", "זמן", "היום",
        "אחרונות", "ראשי", "אגף", "משרד", "פקיד", "הודעה", "דוח", "כתבה",
        "כדורגל", "ספורט", "בידור", "סרט", "מוזיקה", "מזג אוויר", "טמפרטורה", "גשם",
    ),
    ui_terms=(
        "דף הבית", "צור קשר", "אודות", "חיפוש", "התחברות", "הרשמה",
        "קרא עוד", "הורדה", "שליחה", "הבא", "הקודם", "עזרה",
    ),
    phrases=(
        "השר הודיע על תוכנית פיתוח חדשה",
        "תלמידי בית הספר בטקס השנתי",
        "מידע על תוכנית הסיוע החדשה לחקלאים",
        "רופאים בודקים מטופלים בבית החולים",
        "מחירי הירקות העדכניים בשוק המרכזי",
        "הודעה רשמית על תוצאות הבחינות",
    ),
    generic_actions=("חיפוש", "סגירה", "שליחה"),
    placeholders=("תמונה", "כפתור", "סמל"),
)

ENGLISH = Lexicon(
    language_code="en",
    words=(
        "news", "government", "education", "school", "book", "information", "service", "project",
        "country", "region", "district", "application", "certificate", "exam", "result", "student",
        "health", "hospital", "farmer", "market", "price", "job", "time", "today",
        "latest", "main", "department", "ministry", "officer", "notice", "report", "article",
        "football", "sports", "entertainment", "movie", "music", "weather", "temperature", "rain",
        "business", "technology", "travel", "food", "culture", "politics", "economy", "world",
    ),
    ui_terms=(
        "home", "contact us", "about us", "search", "login", "register",
        "read more", "download", "submit", "next", "previous", "help",
        "subscribe", "share", "menu", "settings", "privacy policy", "terms of service",
    ),
    phrases=(
        "minister announces a new development project for the region",
        "students taking part in the annual school sports day",
        "details of the new support programme for local farmers",
        "doctors examining patients at the district hospital",
        "latest vegetable prices at the central market",
        "official announcement of the examination results",
        "a hand holding a smartphone displaying the banking application",
        "aerial view of the city centre during the evening rush hour",
        "group photo of the delegation visiting the new facility",
        "portrait of the award winning author at the book launch",
    ),
    generic_actions=("search", "close", "send", "open menu", "toggle navigation", "play", "submit"),
    placeholders=("image", "icon", "button", "photo", "logo", "banner", "thumbnail", "picture"),
)

#: Developer-style labels used to generate the "Dev Label" discard category.
DEV_LABELS: tuple[str, ...] = (
    "btn-submit", "nav_menu", "navbar-toggle", "carousel1", "hero-banner",
    "footer_logo", "sidebar-widget", "main_img", "icon-arrow-right",
    "card-img-top", "menu_item_3", "slider-control", "img_placeholder",
    "header-cta", "modal-close-x",
)

#: File-name style labels ("File Name" discard category).
FILE_NAME_LABELS: tuple[str, ...] = (
    "banner_img123.jpg", "logo.png", "photo-2024-05.jpeg", "icon.svg",
    "IMG_20240311_142356.jpg", "screenshot.png", "product_01.webp",
    "header-bg.gif", "DSC04512.JPG", "thumb_small.png",
)

#: URL / file-path style labels ("URL or File Path" discard category).
URL_PATH_LABELS: tuple[str, ...] = (
    "https://example.com/image.png", "/assets/img/logo.svg",
    "http://cdn.example.org/uploads/2024/photo.jpg", "/static/media/banner.webp",
    "www.example.net/pictures/team.jpg", "/images/icons/arrow.png",
)

#: Alphanumeric-ID style labels ("Mixed Alnum" discard category).
MIXED_ALNUM_LABELS: tuple[str, ...] = (
    "img123", "icon2", "pic0042", "photo7a", "banner3x", "item00981", "ref2024b",
)

#: "Label + number" patterns ("Label Number Pattern" discard category).
LABEL_NUMBER_LABELS: tuple[str, ...] = (
    "image 1", "button 2", "slide 3", "figure 5", "photo 12", "banner 4", "item 7",
)

#: Ordinal phrases ("Ordinal Phrase" discard category).
ORDINAL_PHRASE_LABELS: tuple[str, ...] = (
    "1 of 3", "2 of 10", "3 of 5", "4 / 12", "slide 2 of 8", "page 3 of 20",
)

#: Emoji-only labels ("Emoji" discard category).
EMOJI_LABELS: tuple[str, ...] = ("😀", "🎉🎉", "📷", "👍", "🔍", "▶️", "🌟🌟🌟")

#: Too-short labels ("Too Short" discard category, non-CJK: < 3 chars).
TOO_SHORT_LABELS: tuple[str, ...] = ("go", "ok", "x", ">", "..", "no", "—")


#: Lexicons by language code.
LEXICONS: dict[str, Lexicon] = {
    lex.language_code: lex
    for lex in (
        HINDI, BANGLA, ARABIC, EGYPTIAN_ARABIC, RUSSIAN, JAPANESE, MANDARIN,
        CANTONESE, KOREAN, THAI, GREEK, HEBREW, ENGLISH,
    )
}


def get_lexicon(language_code: str) -> Lexicon:
    """Lexicon for ``language_code``; raises ``KeyError`` for unknown codes."""
    return LEXICONS[language_code]


def mixed_phrase(rng: random.Random, native: Lexicon, english: Lexicon = ENGLISH) -> str:
    """A phrase mixing native and English words within a single string.

    Used to generate the mixed-language accessibility hints the paper reports
    for Greece, Thailand, Hong Kong and others (Figure 4).
    """
    native_part = native.sentence(rng, 2, 4)
    english_part = english.sentence(rng, 2, 4)
    if rng.random() < 0.5:
        return f"{native_part} {english_part}"
    return f"{english_part} {native_part}"
